"""The benchmark's tracer (perfbench/tracer.py) still finds every layer.

The tracer replaces siglink functions by module attribute and reads
their arguments and results. A refactor that renames, moves or reshapes
one of them breaks only traced benchmark runs, so this runs a traced
``resolve`` and ``tune`` on tiny inputs, in a fresh process, and checks
that each wrapped layer recorded a span.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """\
schema: [name]
inputs:
  a: {path: a.csv, id_column: id}
  b: {path: b.csv, id_column: id}
source_b_id_base: 1000
templates:
  - id: 1
    parts: [{kind: random_words, attr: name, k: 2}]
model: {a: 2.0, b: 0.25}
link: {rho: 0.2, tau: 0.3, verifier: "jaccard:0.5"}
truth: {path: truth.csv}
grids: {a: [2.0], b: [0.25], rho: [0.2], tau: [0.3, 0.5]}
"""

TRACED_RUNS = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    from tracer import Tracer, install
    from siglink import pipeline
    from siglink.config import load_config

    root = Path(sys.argv[1])
    tracer = Tracer()
    install(tracer)
    config = load_config(root / "config.yaml")
    resolved = pipeline.run_resolve(config, root / "resolve", threads=1)
    tuned = pipeline.run_tune(config, root / "tune", threads=1)
    trace = tracer.to_json()
    print(json.dumps({
        "links": len(resolved.links),
        "cells": len(tuned.search.cells),
        "spans": sorted({s["name"] for s in trace["spans"]}),
        "aggregates": sorted(trace["aggregates"]),
    }))
""")


def test_traced_resolve_and_tune_reach_every_layer(tmp_path):
    (tmp_path / "a.csv").write_text("id,name\na1,alice wonder\na2,bob marley\n")
    (tmp_path / "b.csv").write_text(
        "id,name\nb1,wonder alice\nb2,marley bob\nb3,carol king\n")
    (tmp_path / "truth.csv").write_text("id_a,id_b\na1,b1\na2,b2\n")
    (tmp_path / "config.yaml").write_text(CONFIG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(tmp_path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["links"] == 2
    assert result["cells"] == 2
    assert {
        "records.load", "records.dedup", "indexer.build_raw_postings",
        "indexer.index_from_postings", "linker.group_pairs", "linker.combine_pairs",
        "linker.verify_pairs", "linker.threshold_pairs", "cc.connected_components",
        "cc.to_forest", "cc.flatten", "evaluation.grid_search", "evaluation.evaluate",
    } <= set(result["spans"])
    assert "templates.extract" in result["aggregates"]
