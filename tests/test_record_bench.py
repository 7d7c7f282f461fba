"""The benchmark recorder parses what ``perfbench/run.py`` prints, so a
change in that format fails here rather than in the recorder."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

# Standard error, then standard output, of one
# ``run.py --workload tune-person-15k --seed 42 --seconds 10 --trace 0``.
CAPTURED = """\
tune-person-15k: setup setup_s 0.2074 as measured, calibrations 0.1931 0.1806
tune-person-15k: setup setup_s 0.1853 as measured, calibrations 0.1931 0.1806
tune-person-15k: setup setup_s 0.2126 as measured, calibrations 0.1931 0.1806
tune-person-15k: tune setup_s 0.2648 run_s 0.1180 as measured, calibrations 0.1806 0.1838
tune-person-15k: tune setup_s 0.1664 run_s 0.1169 as measured, calibrations 0.1838 0.1828
tune-person-15k: inputs made and read in 0.3 s, timed runs took 10.2 s, checks 0.5 s
tune-person-15k: as measured, median run_s 0.1175 s over 2 runs; calibration median 0.1828 s \
(reference 0.2 s)
== tune-person-15k: 5 operations attempted, 0 failed, outputs correct
   setup_s                                      0.2101 s
   run_s                                        0.1296 s
   (information) precision 0.9893, recall 0.8117, f 0.8917, 6197 links
{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.2101, \
"unit": "s"}, "run_s": {"value": 0.1296, "unit": "s"}}}
"""


def test_parses_runs_calibration_and_result():
    parsed = record_bench.parse(CAPTURED)
    assert [run["mode"] for run in parsed["runs"]] == ["setup"] * 3 + ["tune"] * 2
    assert parsed["runs"][0] == {"mode": "setup", "setup_s": 0.2074,
                                 "calibrations": [0.1931, 0.1806]}
    assert parsed["runs"][3] == {"mode": "tune", "setup_s": 0.2648, "run_s": 0.1180,
                                 "calibrations": [0.1806, 0.1838]}
    assert parsed["calibration_median_s"] == 0.1828
    assert parsed["result"]["correct"] is True
    assert parsed["result"]["metrics"]["run_s"] == {"value": 0.1296, "unit": "s"}


@pytest.mark.parametrize("dropped", ["{", "tune-person-15k: as measured", "tune-person-15k: "])
def test_output_lacking_a_part_is_rejected(dropped):
    kept = [line for line in CAPTURED.splitlines() if not line.startswith(dropped)]
    with pytest.raises(ValueError):
        record_bench.parse("\n".join(kept))


# The same for ``--seconds 3 --trace 1``: the runs alternate untraced and
# traced, no median line is printed, and the metrics are per layer (cut
# here to three of them, and the per-layer table to two lines).
CAPTURED_TRACED = """\
tune-person-15k: setup setup_s 0.1733 as measured, calibrations 0.1399 0.1434
tune-person-15k: setup setup_s 0.1454 as measured, calibrations 0.1399 0.1434
tune-person-15k: setup setup_s 0.1495 as measured, calibrations 0.1399 0.1434
tune-person-15k: tune setup_s 0.1606 run_s 0.0872 as measured, calibrations 0.1434 0.1427
tune-person-15k: tune traced setup_s 0.1729 run_s 0.1310 as measured, calibrations 0.1427 0.1442
tune-person-15k: tune setup_s 0.1581 run_s 0.0876 as measured, calibrations 0.1442 0.1552
tune-person-15k: tune traced setup_s 0.1538 run_s 0.1319 as measured, calibrations 0.1552 0.1421
tune-person-15k: inputs made and read in 0.4 s, timed runs took 4.3 s, checks 0.5 s
== tune-person-15k: 7 operations attempted, 0 failed, outputs correct
   records.load_s                               0.0316 s
   host.calibration_s                           0.1431 s
   (information) precision 0.9893, recall 0.8117, f 0.8917, 6197 links
{"correct": true, "attempted": 7, "failed": 0, "metrics": {"records.load_s": {"value": \
0.03164727849980409, "unit": "s"}, "mem.rss_after_index_mb": {"value": 46.236328125, "unit": \
"MB"}, "host.calibration_s": {"value": 0.14306659800013222, "unit": "s"}}}
"""


def test_parses_a_traced_output():
    parsed = record_bench.parse(CAPTURED_TRACED, trace=1)
    assert [(run["mode"], run.get("traced", False)) for run in parsed["runs"]] == \
        [("setup", False)] * 3 + [("tune", False), ("tune", True)] * 2
    assert parsed["runs"][4] == {"mode": "tune", "traced": True, "setup_s": 0.1729,
                                 "run_s": 0.1310, "calibrations": [0.1427, 0.1442]}
    assert parsed["calibration_median_s"] == 0.14306659800013222
    assert parsed["result"]["metrics"]["mem.rss_after_index_mb"]["unit"] == "MB"
    with pytest.raises(ValueError):  # read as untraced, it has no calibration median
        record_bench.parse(CAPTURED_TRACED)


def test_traced_runs_are_recorded_apart():
    assert record_bench.bench_file("resolve-pubs-2src", 0) == "BENCH_resolve-pubs-2src.json"
    assert record_bench.bench_file("resolve-pubs-2src", 1) == \
        "BENCH_resolve-pubs-2src.traced.json"


def test_append_keeps_earlier_entries(tmp_path):
    path = tmp_path / "BENCH_x.json"
    record_bench.append(path, {"sha": "a"})
    record_bench.append(path, {"sha": "b"})
    assert json.loads(path.read_text()) == [{"sha": "a"}, {"sha": "b"}]


def _checkout(root, files):
    for name, data in files.items():
        path = root / "src" / "siglink" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_src_digest_names_the_files_and_nothing_else(tmp_path):
    files = {"__init__.py": b"", "a.py": b"x = 1\n", "sub/b.py": b"y = 2\n"}
    one = _checkout(tmp_path / "one", files)
    two = _checkout(tmp_path / "two", dict(reversed(files.items())))
    _checkout(two, {"__pycache__/a.cpython-311.pyc": b"compiled"})
    assert record_bench.src_digest(one) == record_bench.src_digest(two)
    _checkout(two, {"a.py": b"x = 2\n"})  # one byte
    assert record_bench.src_digest(one) != record_bench.src_digest(two)
    _checkout(two, {"a.py": b"x = 1\n", "c.py": b""})  # one more file, even empty
    assert record_bench.src_digest(one) != record_bench.src_digest(two)
