"""Seeded benchmark of siglink's ``resolve`` and ``tune``.

    python3 perfbench/run.py --workload resolve-pubs-2src --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 15 --trace 0

Each run generates the workload's inputs from the seed (gen.py), starts
siglink a few times only to load its config (set-up probes), then runs
the whole pipeline in fresh single-threaded processes (child.py) until
``--seconds`` have passed, at least twice. A fixed pure-Python
calibration (``calibrate_s``) is timed before the probes, after them
and after each timed process, and each process's times are scaled to a
host of reference speed by the mean of the calibrations just before
and just after it: on a shared host the speed of the processor drifts
by a third within minutes, and the scaled times are what stays
comparable from one run to the next (README.md, "Host speed"). The
outputs are then checked
by the benchmark's own code (checks.py), untimed, and the last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones
(medians over the run); with ``--trace 1`` runs alternate untraced and
traced (tracer.py) and the metrics are the per-layer ones. See
README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import yaml

import checks
from gen import WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
# Scaled times are seconds on a host where calibrate_s() reads this: a
# round figure within what this machine gives (README.md, "Host speed").
REFERENCE_CALIBRATION_S = 0.2
CALIBRATION_REPEATS = 5
_LOOKUP_TABLE_SIZE = 500_000
_CALIBRATION_WORDS = [f"w{i:04d}" for i in range(400)]

END_TO_END = {"setup_s": "s", "run_s": "s", "records_per_s": "1/s",
              "cells_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "records.load_s": "s", "records.dedup_s": "s",
    "templates.extract_s": "s", "templates.extract_calls": "count",
    "indexer.build_raw_postings_s": "s", "indexer.group_s": "s",
    "indexer.index_from_postings_s": "s", "indexer.index_from_postings_calls": "count",
    "linker.group_pairs_s": "s", "linker.combine_pairs_s": "s",
    "linker.eliminate_s": "s", "linker.eliminate_calls": "count",
    "linker.eliminated_rows": "count", "linker.pairs_enumerated": "count",
    "linker.evidence_rows": "count", "linker.cross_source_yield": "ratio",
    "linker.verify_pairs_s": "s", "linker.verify_accept_ratio": "ratio",
    "linker.threshold_pairs_s": "s",
    "evaluation.evaluate_s": "s", "evaluation.grid_search_s": "s",
    "cc.connected_components_s": "s", "cc.to_forest_s": "s", "cc.flatten_s": "s",
    "cc.forest_rounds": "count", "cc.flatten_rounds": "count",
    "pipeline.self_s": "s",
    "mem.rss_after_index_mb": "MB", "mem.rss_after_link_mb": "MB",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.unaccounted_s": "s",
    "host.calibration_s": "s",
}


def _grouping_job() -> float:
    """Seconds one fixed job takes: keyed grouping, pair counting, a sort
    and string joins over a working set that fits in the caches."""
    rng = random.Random(0)
    t0 = time.perf_counter()
    groups: dict[tuple[int, str], list[int]] = {}
    for i in range(30_000):
        groups.setdefault((rng.randrange(300), rng.choice(_CALIBRATION_WORDS)), []).append(i)
    pairs: Counter = Counter()
    for ids in groups.values():
        pairs.update(itertools.combinations(ids, 2))
    ranked = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    " ".join(f"{k[1]}:{len(v)}" for k, v in ranked).split()
    return time.perf_counter() - t0


_lookup_table: dict[int, tuple[int, str]] = {}
_lookup_keys: list[int] = []


def _lookup_job() -> float:
    """Seconds one fixed job takes: random lookups in a table far larger
    than the caches, so nearly every one misses them. The table is built
    on the first call, untimed."""
    if not _lookup_table:
        _lookup_table.update((i * 7919, (i, f"k{i}")) for i in range(_LOOKUP_TABLE_SIZE))
        rng = random.Random(1)
        _lookup_keys.extend(rng.randrange(_LOOKUP_TABLE_SIZE) * 7919 for _ in range(120_000))
    t0 = time.perf_counter()
    total = 0
    for k in _lookup_keys:
        total += _lookup_table[k][0]
    return time.perf_counter() - t0


def calibrate_s() -> float:
    """The host's current speed: the median time of a few runs of each
    calibration job, summed. Neither runs siglink code, and the work is
    the same on every call. The pipeline's processes slow less than the
    in-cache job and more than the cache-missing one when the host
    slows, so the two together follow them more closely than either
    alone. Cyclic GC is off while they run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sum(statistics.median(job() for _ in range(CALIBRATION_REPEATS))
                   for job in (_grouping_job, _lookup_job))
    finally:
        if enabled:
            gc.enable()


def spawn(mode: str, cfg: Path, out: Path, work: Path, traced: bool = False) -> dict | None:
    """Run child.py once; its result dict, or None if it failed."""
    result = work / f"{out.name}-{mode}.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(HERE / "child.py"), mode, str(cfg), str(out), str(result)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + [repr(t0), "1" if traced else "0"], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{mode} run timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} run exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def layer_metrics(trace: dict, traced_run_s: float, scale: float,
                  untraced_run_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and accounting errors. Times
    are as measured, except ``trace.overhead_s``, which compares the
    traced run with the untraced median ``untraced_run_s`` on the
    reference host (``scale``: see ``calibrate_s``)."""
    spans, agg, counts = trace["spans"], trace["aggregates"], trace["counts"]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def agg_s(name: str) -> float:
        return agg.get(name, {}).get("s", 0.0)

    roots = [s for s in spans if s["parent"] is None]
    checked = counts.get("linker.verify_checked", 0)
    m = {
        "records.load_s": total("records.load"),
        "records.dedup_s": total("records.dedup"),
        "templates.extract_s": agg_s("templates.extract"),
        "templates.extract_calls": agg.get("templates.extract", {}).get("calls", 0),
        "indexer.build_raw_postings_s": total("indexer.build_raw_postings"),
        "indexer.group_s": total("indexer.build_raw_postings") - agg_s("templates.extract"),
        "indexer.index_from_postings_s": total("indexer.index_from_postings"),
        "linker.group_pairs_s": total("linker.group_pairs"),
        "linker.combine_pairs_s": total("linker.combine_pairs"),
        "linker.eliminate_s": agg_s("linker.eliminate"),
        "linker.eliminate_calls": agg.get("linker.eliminate", {}).get("calls", 0),
        "linker.verify_pairs_s": total("linker.verify_pairs"),
        "linker.verify_accept_ratio": counts.get("linker.verify_accepted", 0) / checked if checked else 0.0,
        "linker.threshold_pairs_s": total("linker.threshold_pairs"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.grid_search_s": total("evaluation.grid_search"),
        "cc.connected_components_s": total("cc.connected_components"),
        "cc.to_forest_s": total("cc.to_forest"),
        "cc.flatten_s": total("cc.flatten"),
        "pipeline.self_s": sum(s["self_s"] for s in roots),
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s * scale - untraced_run_s,
    }
    for name in ("indexer.index_from_postings_calls", "linker.eliminated_rows",
                 "linker.pairs_enumerated", "linker.evidence_rows", "cc.forest_rounds",
                 "cc.flatten_rounds", "mem.rss_after_index_mb", "mem.rss_after_link_mb"):
        m[name] = counts.get(name, 0)
    enumerated = m["linker.pairs_enumerated"]
    m["linker.cross_source_yield"] = m["linker.evidence_rows"] / enumerated if enumerated else 0.0
    layers = sum(s["self_s"] for s in spans if s["parent"] is not None) + \
        sum(a["s"] for a in agg.values())
    m["trace.unaccounted_s"] = traced_run_s - layers - m["pipeline.self_s"]
    errors = []
    if len(roots) != 1:
        errors.append(f"trace-accounting: {len(roots)} root spans, expected one")
    if abs(m["trace.unaccounted_s"]) > 0.01 * traced_run_s:
        errors.append(f"trace-accounting: layer spans plus pipeline.self_s leave "
                      f"{m['trace.unaccounted_s']:.4f} s of run_s {traced_run_s:.4f} s unaccounted")
    return m, errors


def check_outputs(w: Workload, inputs: checks.Inputs, out: Path, work: Path,
                  seed: int) -> tuple[list[str], dict]:
    """All output checks of one run's outputs (untimed)."""
    if w.command == "resolve":
        return checks.check_resolve(inputs, out, seed)
    errors, best = checks.check_tune(inputs, out)
    if not best:
        return errors, {}
    cfg = checks.best_config(inputs, best)
    cfg_path = work / "inputs" / "best.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=False, allow_unicode=True),
                        encoding="utf-8")
    if spawn("resolve", cfg_path, work / "best", work) is None:
        return errors + ["tune-resolve: resolve with the best parameters failed"], best
    errors += checks.check_best_resolve(inputs, best, work / "best")
    more, _ = checks.check_resolve(inputs, work / "best", seed, cfg)
    return errors + more, best


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t_gen = time.monotonic()
        cfg = generate(w, seed, work / "inputs")
        inputs = checks.load_inputs(cfg)
        t_gen = time.monotonic() - t_gen
        cells = 1 if w.command == "resolve" else _grid_size(inputs.cfg)
        calibrations = [calibrate_s()]

        def scaled(label: str, results: list[dict | None]) -> None:
            """Calibrate after ``results`` and give each a ``scale`` that
            turns its times into seconds on the reference host."""
            calibrations.append(calibrate_s())
            for r in filter(None, results):
                r["scale"] = 2 * REFERENCE_CALIBRATION_S / sum(calibrations[-2:])
                print(f"{name}: {label} setup_s {r['setup_s']:.4f}"
                      + (f" run_s {r['run_s']:.4f}" if "run_s" in r else "")
                      + f" as measured, calibrations {calibrations[-2]:.4f} {calibrations[-1]:.4f}",
                      file=sys.stderr)

        # The probes take a quarter of a second each: one calibration on
        # either side of all of them is enough.
        probes = [spawn("setup", cfg, work / f"probe{i}", work) for i in range(SETUP_PROBES)]
        scaled("setup", probes)
        runs: list[tuple[Path, bool, dict | None]] = []
        start = time.monotonic()
        while True:
            traced = trace and len(runs) % 2 == 1
            out = work / f"op{len(runs)}"
            runs.append((out, traced, spawn(w.command, cfg, out, work, traced)))
            scaled(w.command + " traced" * traced, [runs[-1][2]])
            if len(runs) >= 2 and time.monotonic() - start >= seconds \
                    and not (trace and len(runs) % 2):
                break
        ok = [(out, traced, r) for out, traced, r in runs if r is not None]
        untraced = [r for _, traced, r in ok if not traced]
        if not untraced or (trace and len(untraced) == len(ok)):
            raise RuntimeError(f"{name}: every run failed, nothing to report")
        attempted = len(probes) + len(runs)
        failed = sum(p is None for p in probes) + len(runs) - len(ok)
        t_check = time.monotonic()
        errors, info = check_outputs(w, inputs, ok[0][0], work, seed)
        digests = {checks.output_digest(out, w.command) for out, _, _ in ok}
        if len(digests) > 1:
            errors.append(f"determinism: {len(ok)} runs on the same inputs wrote "
                          f"{len(digests)} different outputs")
        print(f"{name}: inputs made and read in {t_gen:.1f} s, timed runs took "
              f"{t_check - start:.1f} s, checks {time.monotonic() - t_check:.1f} s", file=sys.stderr)
        if trace:
            base = statistics.median(r["run_s"] * r["scale"] for r in untraced)
            traces = [r for _, traced, r in ok if traced]
            per_run = []
            for r in traces:
                m, errs = layer_metrics(r["trace"], r["run_s"], r["scale"], base)
                per_run.append(m)
                errors += errs
            metrics = {k: statistics.median(m[k] for m in per_run) for k in PER_LAYER
                       if k != "host.calibration_s"}
            metrics["host.calibration_s"] = statistics.median(calibrations)
            units = PER_LAYER
            WORK.mkdir(parents=True, exist_ok=True)
            (WORK / f"trace-{name}-{seed}.json").write_text(
                json.dumps([r["trace"] for r in traces], indent=1), encoding="utf-8")
        else:
            rows = len(inputs.attrs)
            setups = [p["setup_s"] * p["scale"] for p in probes if p] + \
                [r["setup_s"] * r["scale"] for _, _, r in ok]
            run_s = [r["run_s"] * r["scale"] for r in untraced]
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(run_s),
                "records_per_s": statistics.median(rows / t for t in run_s),
                "cells_per_s": statistics.median(cells / t for t in run_s),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            }
            print(f"{name}: as measured, median run_s {statistics.median(r['run_s'] for r in untraced):.4f} s "
                  f"over {len(untraced)} runs; calibration median "
                  f"{statistics.median(calibrations):.4f} s (reference {REFERENCE_CALIBRATION_S} s)",
                  file=sys.stderr)
            units = END_TO_END
        return {
            "workload": name, "errors": errors, "info": info,
            "result": {
                "correct": not errors, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _grid_size(cfg: dict) -> int:
    g = cfg["grids"]
    return len(g["a"]) * len(g["b"]) * len(g["rho"]) * len(g["tau"])


def report(res: dict) -> None:
    """Human-readable lines, then the result JSON as the last line."""
    r = res["result"]
    print(f"== {res['workload']}: {r['attempted']} operations attempted, {r['failed']} failed, "
          f"outputs {'correct' if r['correct'] else 'WRONG'}")
    for err in res["errors"]:
        print(f"   check failed: {err}")
    for name, m in r["metrics"].items():
        print(f"   {name:<36} {m['value']:>14.4f} {m['unit']}")
    info = res["info"]
    if "precision" in info:
        print(f"   (information) precision {info['precision']:.4f}, recall {info['recall']:.4f}, "
              f"f {info['f_measure']:.4f}, {info['links']} links")
    print(json.dumps(r), flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="siglink resolve/tune benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = dict.fromkeys(["src/siglink/pipeline.py", *(w.base_config for w in WORKLOADS.values())])
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the program is not in {ROOT}: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
