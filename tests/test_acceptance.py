"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria over the public bibliographic/product benchmarks need the
third-party CSVs placed under data/benchmarks/ first (manual download;
see README "Benchmark datasets"). Those tests skip, loudly, when the
files are absent. Everything else is self-contained and seeded.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from siglink.cc import flatten, normalize_edges, oracle_components, to_forest
from siglink.config import load_config
from siglink.indexer import build_index
from siglink.linker import JaccardVerifier, finalize
from siglink.pipeline import run_resolve, run_synth, run_tune
from siglink.records import Record, RecordTable
from siglink.sigprob import ProbabilityModel, max_recurrence, signature_probability
from siglink.templates import (
    ConsecutiveWords,
    FullAttribute,
    LastDigits,
    RandomWords,
    SignatureTemplate,
)

from conftest import brute_force_links
from test_cc import forest_height, random_graph
from test_sigprob import bayes_posterior

REPO = Path(__file__).resolve().parent.parent
BENCH_CONFIGS = REPO / "configs" / "benchmarks"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def skip(criterion: str, why: str) -> None:
    print(f"\n[acceptance] {criterion}: SKIP - {why}")
    pytest.skip(why)


# --------------------------------------------------------------------
# Criterion 1: benchmark F-measure floors after a documented grid search
# (<= 200 cells), plus a tuned single run in <= 60 s per dataset.
# --------------------------------------------------------------------

BENCHMARKS = [
    ("dblp_scholar", 0.87),
    ("dblp_acm", 0.95),
    ("abt_buy", 0.65),
    ("amazon_google", 0.58),
]


def benchmark_config(name: str):
    cfg_path = BENCH_CONFIGS / f"{name}.yaml"
    config = load_config(cfg_path)
    missing = [
        str(p) for p in
        [config.inputs["a"].path, config.inputs["b"].path, config.truth.path]
        if not p.exists()
    ]
    return config, missing


@pytest.mark.parametrize("name,floor", BENCHMARKS)
def test_criterion_1_benchmark_f_measure(name, floor, tmp_path):
    criterion = f"criterion 1 ({name})"
    config, missing = benchmark_config(name)
    if missing:
        skip(criterion, f"benchmark data not present: {missing[0]} (see README)")
    assert config.grids.size <= 200
    tune = run_tune(config, tmp_path)
    best = tune.search.best
    # tuned single run must also be fast enough for desk-scale work
    tuned = dataclasses.replace(
        config,
        model=ProbabilityModel(best.params.a, best.params.b, config.model.k_cap),
        link=dataclasses.replace(config.link, rho=best.params.rho, tau=best.params.tau),
    )
    t0 = time.perf_counter()
    run_resolve(tuned, tmp_path / "tuned")
    elapsed = time.perf_counter() - t0
    ok = best.metrics.f_measure >= floor and elapsed <= 60.0
    report(criterion, ok,
           f"best F={best.metrics.f_measure:.4f} (floor {floor}), "
           f"tuned run {elapsed:.1f}s (limit 60s), grid {len(tune.search.cells)} cells")


# --------------------------------------------------------------------
# Criterion 2: golden five-node worked example, byte-exact.
# --------------------------------------------------------------------

def test_criterion_2_golden_small_graph():
    edges = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]
    forest = to_forest(normalize_edges(edges))
    forest_text = "\n".join(f"{p},{c}" for p, c in forest.tolist())
    nodes, labels = flatten(forest)
    labels_text = "\n".join(f"{n},{lab}" for n, lab in zip(nodes.tolist(), labels.tolist()))
    ok = forest_text == "1,2\n1,4\n2,3\n2,5" and labels_text == "1,1\n2,1\n3,1\n4,1\n5,1"
    report("criterion 2", ok,
           f"forest {forest_text!r}, labels all point at node 1: {labels_text!r}")


# --------------------------------------------------------------------
# Criterion 3: 1,000 seeded random graphs -- relational CC equals the
# union-find oracle; flatten round count <= ceil(log2(h)) + 1; the
# parent-id sum strictly decreases on every forest round.
# --------------------------------------------------------------------

def test_criterion_3_cc_oracle_equivalence():
    rng = random.Random(33_000)
    kinds = ["star", "chain", "clique", "forest", "sparse", "mixed"]
    checked = 0
    for i in range(1000):
        max_nodes = 10_000 if i % 50 == 0 else (2_000 if i % 10 == 0 else 300)
        edges = random_graph(rng, kinds[i % len(kinds)], max_nodes)
        stats: dict = {}
        forest = to_forest(normalize_edges(edges), stats)
        nodes, labels = flatten(forest, stats)
        sums = stats["forest_parent_sums"]
        assert all(b < a for a, b in zip(sums, sums[1:])), f"graph {i}: sum not decreasing"
        expected = oracle_components(edges)
        assert dict(zip(nodes.tolist(), labels.tolist())) == expected, \
            f"graph {i}: partition mismatch"
        if forest.size:
            h = forest_height(forest)
            bound = max(0, math.ceil(math.log2(h))) + 1
            assert stats["flatten_rounds"] <= bound, \
                f"graph {i}: {stats['flatten_rounds']} rounds > bound {bound} (h={h})"
        checked += 1
    report("criterion 3", checked == 1000,
           f"{checked}/1000 random graphs matched the union-find oracle "
           f"within the round bound")


# --------------------------------------------------------------------
# Criterion 4: 200 seeded toy datasets -- index-based generation and
# combination (no elimination) equal the brute-force all-pairs oracle,
# which always eliminates.
# --------------------------------------------------------------------

def random_toy_dataset(rng: random.Random):
    words = ["ana", "ben", "cole", "dia", "east", "field", "gate", "hill", "iron"]
    digits = ["12345", "67890", "5551234", "98765", "31415926"]
    n = rng.randint(2, 20)
    two_sources = rng.random() < 0.5
    records = []
    source_of = {}
    for i in range(n):
        source = ("a" if i % 2 == 0 else "b") if two_sources else "single"
        rid = i if source != "b" else 1000 + i
        source_of[rid] = source
        records.append(Record(
            id=rid,
            attributes={
                "x": tuple(rng.choices(words, k=rng.randint(0, 5))),
                "y": tuple(rng.choices(words + digits, k=rng.randint(0, 4))),
            },
        ))
    templates = []
    for tid in range(1, rng.randint(2, 4)):
        roll = rng.random()
        if roll < 0.35:
            part = ConsecutiveWords(rng.choice(["x", "y"]), rng.randint(1, 2))
        elif roll < 0.6:
            part = RandomWords("x", 2)
        elif roll < 0.8:
            part = FullAttribute(rng.choice(["x", "y"]))
        else:
            part = LastDigits("y", rng.randint(2, 4))
        parts = (part,)
        if rng.random() < 0.3:
            parts += (ConsecutiveWords("y", 1),)
        templates.append(SignatureTemplate(tid, parts))
    model = ProbabilityModel(a=rng.uniform(1.5, 8.0), b=rng.uniform(0.05, 2.0))
    rho = rng.uniform(0.05, 0.8)
    tau = rng.uniform(0.1, 0.9)
    cross = two_sources and rng.random() < 0.7
    verifier = JaccardVerifier(rng.uniform(0.05, 0.5)) if rng.random() < 0.3 else None
    rng.random()  # unused draw, kept so the seeded datasets stay the same
    return records, source_of, templates, model, rho, tau, cross, verifier


def test_criterion_4_linkage_oracle_equivalence():
    rng = random.Random(44_000)
    agreed = 0
    for i in range(200):
        records, source_of, templates, model, rho, tau, cross, verifier = random_toy_dataset(rng)
        index = build_index(RecordTable.of(records), templates, model, rho)
        source = np.array([source_of[rid] for rid in index.table.ids.tolist()])
        got = finalize(
            index,
            tau=tau,
            source=source if cross else None,
            verifier=verifier,
            records=RecordTable.of(records),
        ).tolist()
        expected = brute_force_links(
            records, templates, model, rho, tau,
            cross_source_only=cross, source_of=source_of, verifier=verifier,
        )
        assert got == expected, f"toy {i}: {got} != {expected}"
        agreed += 1
    report("criterion 4", agreed == 200,
           f"{agreed}/200 toy datasets matched the brute-force oracle exactly")


# --------------------------------------------------------------------
# Criterion 5: probability-model identities.
# --------------------------------------------------------------------

def test_criterion_5_probability_identities():
    worst = 0.0
    for lam in (0.2, 0.5, 1.0, 2.0, 3.0):
        for ratio in (1.5, 2.0, 5.0, 10.0):
            mu = lam * ratio
            for c in (0.1, 0.3, 0.5, 0.8, 0.95):
                model = ProbabilityModel(
                    a=mu / lam, b=math.exp(lam - mu) * (1 - c) / c
                )
                for k in range(1, 31):
                    expected = bayes_posterior(lam, mu, c, k)
                    got = signature_probability(model, k)
                    worst = max(worst, abs(got - expected) / expected)
    rng = random.Random(55_000)
    consistent = 0
    for _ in range(1000):
        model = ProbabilityModel(
            a=math.exp(rng.uniform(0.01, 5.0)),
            b=math.exp(rng.uniform(-8.0, 2.0)),
        )
        rho = rng.uniform(0.001, 0.999)
        k = max_recurrence(model, rho)
        ok = (k == 0 or signature_probability(model, k) > rho) and (
            k == model.k_cap or signature_probability(model, k + 1) <= rho
        )
        consistent += ok
    report("criterion 5", worst <= 1e-12 and consistent == 1000,
           f"closed form vs Bayes worst rel err {worst:.2e} (limit 1e-12); "
           f"{consistent}/1000 recurrence-cap consistency draws held")


# --------------------------------------------------------------------
# Criterion 6: scalability shape on synthetic data -- 10x records may
# cost at most 15x wall time; the run report uses the standard
# intermediate-size table rows.
# --------------------------------------------------------------------

SCALE_CONFIG = """\
schema: [name, address, phone]
inputs:
  single: {path: records.csv, id_column: rec_id}
templates:
  - id: 1
    parts:
      - {kind: random_words, attr: name, k: 2}
      - {kind: consecutive_words, attr: address, n: 2}
  - id: 2
    parts:
      - {kind: random_words, attr: name, k: 2}
      - {kind: last_digits, attr: phone, d: 6}
model: {a: 4.0, b: 0.005}
link: {rho: 0.3, tau: 0.6}
synth: {n_entities: %(n)d, records_per_entity: 3, corruption_rate: 0.2, seed: 42}
output_dir: out
"""


def synth_scale_input(tmp_path: Path, label: str, n_entities: int):
    work = tmp_path / label
    work.mkdir()
    (work / "config.yaml").write_text(SCALE_CONFIG % {"n": n_entities})
    config = load_config(work / "config.yaml")
    run_synth(config, work)
    return config, work


def timed_resolve(config, work: Path) -> float:
    t0 = time.perf_counter()
    run_resolve(config, work / "out")
    return time.perf_counter() - t0


def test_criterion_6_scalability_shape(tmp_path):
    timed_resolve(*synth_scale_input(tmp_path, "warmup", 500))  # absorb one-time costs
    small = synth_scale_input(tmp_path, "small", 10_000)   # 30k records
    big = synth_scale_input(tmp_path, "big", 100_000)      # 300k records
    # Medians of three runs each, alternating sizes, so that host-speed
    # drift between two single samples cannot decide the ratio.
    small_runs, big_runs = [], []
    for _ in range(3):
        small_runs.append(timed_resolve(*small))
        big_runs.append(timed_resolve(*big))
    small_s, big_s = statistics.median(small_runs), statistics.median(big_runs)
    ratio = big_s / small_s
    table = (tmp_path / "big" / "out" / "report.txt").read_text()
    rows_present = all(
        row in table for row in
        ["Records", "Distinct records", "Candidate signatures",
         "Pairwise links", "Verified links", "Connected components", "Overall"]
    )
    report("criterion 6", ratio <= 15.0 and rows_present,
           f"30k -> 300k records: {small_s:.2f}s -> {big_s:.2f}s "
           f"(ratio {ratio:.1f}x, limit 15x); report rows present: {rows_present}")


# --------------------------------------------------------------------
# Criterion 7: byte-identical consecutive resolve runs on DBLP-ACM.
# --------------------------------------------------------------------

def test_criterion_7_benchmark_determinism(tmp_path):
    config, missing = benchmark_config("dblp_acm")
    if missing:
        skip("criterion 7", f"benchmark data not present: {missing[0]} (see README)")
    outputs = []
    for run in range(2):
        result = run_resolve(config, tmp_path / f"run{run}")
        outputs.append((
            result.clusters_path.read_bytes(),
            result.links_path.read_bytes(),
        ))
    ok = outputs[0] == outputs[1]
    report("criterion 7", ok, "two consecutive resolve runs on DBLP-ACM are byte-identical")


# Determinism is also checked without third-party data so the property
# is never silently untested. Separate interpreter processes make sure
# per-process hash randomization cannot leak into the outputs.
def test_criterion_7_synthetic_determinism(tmp_path):
    import subprocess
    import sys

    outputs = []
    for run in range(2):
        work = tmp_path / f"run{run}"
        work.mkdir()
        (work / "config.yaml").write_text(SCALE_CONFIG % {"n": 2_000})
        config = load_config(work / "config.yaml")
        run_synth(config, work)
        proc = subprocess.run(
            [sys.executable, "-m", "siglink.cli", "resolve",
             "--config", str(work / "config.yaml"), "--out", str(work / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((
            (work / "out" / "clusters.csv").read_bytes(),
            (work / "out" / "links.csv").read_bytes(),
        ))
    report("criterion 7 (synthetic stand-in)", outputs[0] == outputs[1],
           "two resolve runs in separate processes on seeded synthetic data "
           "are byte-identical")
