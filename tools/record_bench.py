"""Run the benchmark once and append what it printed to ``BENCH_<workload>.json``.

    python3 tools/record_bench.py --workload resolve-pubs-2src --seed 42
    python3 tools/record_bench.py --workload tune-person-15k --seed 42 \\
        --checkout ../other-checkout --sha 1a2b3c4 --note "before the change"

Runs ``perfbench/run.py --workload W --seed S --seconds 10 --trace 0``
from the root of the checkout (this one by default) and parses its
output: each run's "as measured" line, the calibration median and the
final JSON line. One entry is appended to the list in
``BENCH_<workload>.json`` at the root of this script's checkout,
whichever checkout ran. The entry names the code that ran: the commit
(from ``git``, or ``--sha``) and ``src_digest``, a sha256 over
``src/siglink``'s files (see ``src_digest``), which also names a copy
that is not a clone. It holds the Python and numpy versions, ``os.cpu_count()``, the checkout directory's name and path
length, whether ``src/siglink`` held a ``__pycache__`` before the run,
the calibration median, every run's times and the final metrics.

Every run is kept, not only the medians, because the checkout's
directory, its path length and the allocator's layout alone move
``run_s`` by 5-10% and ``peak_rss_mb`` by up to 16 MB between
invocations of the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 10

# "<workload>: <mode> setup_s S[ run_s R] as measured, calibrations B A"
_RUN = re.compile(r"^[\w-]+: (?P<mode>[a-z]+) setup_s (?P<setup_s>[\d.]+)"
                  r"(?: run_s (?P<run_s>[\d.]+))? as measured, "
                  r"calibrations (?P<before>[\d.]+) (?P<after>[\d.]+)$")
# "<workload>: as measured, median run_s R s over N runs; calibration median C s ..."
_MEDIAN = re.compile(r"^[\w-]+: as measured, median run_s [\d.]+ s over \d+ runs; "
                     r"calibration median (?P<calibration>[\d.]+) s")


def parse(output: str) -> dict:
    """The runs, the calibration median and the final JSON object of
    one ``run.py`` invocation's output (standard error and output, in
    any order). Raises ``ValueError`` if the output holds no run line, no
    calibration median or no final JSON line."""
    runs, calibration, result = [], None, None
    for line in output.splitlines():
        if m := _RUN.match(line):
            run = {"mode": m["mode"], "setup_s": float(m["setup_s"]),
                   "calibrations": [float(m["before"]), float(m["after"])]}
            if m["run_s"] is not None:
                run["run_s"] = float(m["run_s"])
            runs.append(run)
        elif m := _MEDIAN.match(line):
            calibration = float(m["calibration"])
        elif line.startswith("{"):
            result = json.loads(line)
    if not runs or calibration is None or result is None:
        raise ValueError("the benchmark's output lacks run lines, the calibration median "
                         "or the final JSON line")
    return {"runs": runs, "calibration_median_s": calibration, "result": result}


def _git_sha(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(checkout: Path) -> str:
    """sha256 over the files under ``src/siglink`` of ``checkout``,
    ``__pycache__`` left out: each file's path relative to it and the
    sha256 of its bytes, in path order."""
    root = checkout / "src" / "siglink"
    files = sorted((path.relative_to(root).as_posix(), path) for path in root.rglob("*")
                   if path.is_file() and "__pycache__" not in path.relative_to(root).parts)
    digest = hashlib.sha256()
    for name, path in files:
        digest.update(name.encode("utf-8") + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def record(workload: str, seed: int, checkout: Path, sha: str | None,
           note: str | None) -> dict:
    """Run the benchmark in ``checkout`` and return the entry for it."""
    pycache = (checkout / "src" / "siglink" / "__pycache__").exists()
    digest = src_digest(checkout)  # before the run, which may compile
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py exited {proc.returncode}:\n{proc.stderr}")
    entry = {
        "sha": sha or _git_sha(checkout),
        "src_digest": digest,
        "note": note,
        "seed": seed,
        "seconds": SECONDS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "checkout": {"name": checkout.name, "path_length": len(str(checkout))},
        "pycache": pycache,
    }
    entry.update(parse(proc.stderr + proc.stdout))
    return entry


def append(path: Path, entry: dict) -> None:
    """Append ``entry`` to the JSON list in ``path`` (made if missing),
    which holds one entry per line."""
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append(entry)
    path.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the checkout to benchmark (default: this one)")
    ap.add_argument("--sha", help="the commit the checkout holds, if it is not a git clone")
    ap.add_argument("--note", help="free text kept with the entry")
    args = ap.parse_args(argv)
    entry = record(args.workload, args.seed, args.checkout.resolve(), args.sha, args.note)
    append(ROOT / f"BENCH_{args.workload}.json", entry)
    result = entry["result"]
    print(f"{args.workload}: {len(entry['runs'])} run lines, correct {result['correct']}, "
          + ", ".join(f"{k} {m['value']:.4f}" for k, m in result["metrics"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
