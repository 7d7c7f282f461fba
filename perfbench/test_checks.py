"""The output checks accept siglink's real outputs and reject broken ones.

    python3 -m pytest perfbench

Small seeded workloads of the same make-up as the benchmark's are run
in-process; each test breaks one output file in a copy and expects the
check's tag among the errors.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from gen import WORKLOADS, Workload, generate  # noqa: E402
from siglink import pipeline  # noqa: E402
from siglink.config import load_config  # noqa: E402

TINY_PUBS = Workload("tiny-pubs", "resolve", "configs/benchmarks/dblp_acm.yaml", pubs_rows=400)
TINY_PERSON = Workload("tiny-person", "tune", "configs/synth_example.yaml", n_entities=300)


@pytest.fixture(scope="module")
def pubs(tmp_path_factory):
    d = tmp_path_factory.mktemp("pubs")
    cfg = generate(TINY_PUBS, 7, d / "in")
    pipeline.run_resolve(load_config(cfg), d / "out")
    return checks.load_inputs(cfg), d / "out"


@pytest.fixture(scope="module")
def person(tmp_path_factory):
    d = tmp_path_factory.mktemp("person")
    cfg = generate(TINY_PERSON, 7, d / "in")
    pipeline.run_resolve(load_config(cfg), d / "resolve")
    pipeline.run_tune(load_config(cfg), d / "tune")
    return checks.load_inputs(cfg), d


def _copy(out: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(out, tmp_path / "broken"))


def _rewrite(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _fired(errors: list[str], tag: str) -> bool:
    return any(e.startswith(tag + ":") for e in errors)


def _clusters(out: Path) -> dict[int, list[int]]:
    members: dict[int, list[int]] = {}
    for rid, lab in checks.read_clusters(out / "clusters.csv")[1]:
        members.setdefault(lab, []).append(rid)
    return members


def test_real_outputs_pass(pubs, person):
    inputs, out = pubs
    errors, info = checks.check_resolve(inputs, out, 1)
    assert errors == [] and info["links"] > 0
    p_inputs, d = person
    assert checks.check_resolve(p_inputs, d / "resolve", 1)[0] == []
    errors, best = checks.check_tune(p_inputs, d / "tune")
    assert errors == []
    pipeline.run_resolve(load_config(_write_best(p_inputs, best, d)), d / "best")
    assert checks.check_best_resolve(p_inputs, best, d / "best") == []


def _write_best(inputs, best, d: Path) -> Path:
    path = d / "in" / "best.yaml"
    path.write_text(yaml.safe_dump(checks.best_config(inputs, best)), encoding="utf-8")
    return path


def test_split_cluster_is_rejected(pubs, tmp_path):
    inputs, out = pubs
    broken = _copy(out, tmp_path)
    lab, ms = next((lab, ms) for lab, ms in _clusters(out).items() if len(ms) > 1)
    loner = max(ms)   # labelled by itself: a valid minimum, but not the closure
    _rewrite(broken / "clusters.csv",
             lambda rows: [r if r[0] != str(loner) else [r[0], r[0]] for r in rows])
    assert _fired(checks.check_resolve(inputs, broken, 1)[0], "closure")


def test_label_that_is_not_the_minimum_is_rejected(pubs, tmp_path):
    inputs, out = pubs
    broken = _copy(out, tmp_path)
    lab, ms = next((lab, ms) for lab, ms in _clusters(out).items() if len(ms) > 1)
    _rewrite(broken / "clusters.csv",
             lambda rows: [r if r[1] != str(lab) else [r[0], str(max(ms))] for r in rows])
    assert _fired(checks.check_resolve(inputs, broken, 1)[0], "label")


def test_link_at_tau_is_rejected(pubs, tmp_path):
    inputs, out = pubs
    broken = _copy(out, tmp_path)
    tau = inputs.cfg["link"]["tau"]
    _rewrite(broken / "links.csv", lambda rows: [rows[0], rows[1][:2] + [repr(tau)] + rows[1][3:]]
             + rows[2:])
    assert _fired(checks.check_resolve(inputs, broken, 1)[0], "link-tau")


def test_same_source_link_is_rejected(pubs, tmp_path):
    inputs, out = pubs
    broken = _copy(out, tmp_path)
    x, y = sorted(rid for rid, src in inputs.source.items() if src == "a")[:2]
    _rewrite(broken / "links.csv", lambda rows: [rows[0], [str(x), str(y), "0.99", "3"]] + rows[1:])
    assert _fired(checks.check_resolve(inputs, broken, 1)[0], "cross-source")


def test_shuffled_tune_row_is_rejected(person, tmp_path):
    inputs, d = person
    broken = _copy(d / "tune", tmp_path)
    _rewrite(broken / "tune_results.csv", lambda rows: [rows[0], rows[2], rows[1]] + rows[3:])
    assert _fired(checks.check_tune(inputs, broken)[0], "tune-order")


def test_wrong_probability_is_rejected(pubs, tmp_path):
    inputs, out = pubs
    broken = _copy(out, tmp_path)
    _rewrite(broken / "links.csv",
             lambda rows: [rows[0]] + [r[:2] + [repr(float(r[2]) - 1e-12)] + r[3:] for r in rows[1:]])
    assert _fired(checks.check_resolve(inputs, broken, 1)[0], "probability")


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
