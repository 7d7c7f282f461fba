#!/usr/bin/env python3
"""Full pipeline on generated data: synth -> resolve -> evaluate.

Generates a noisy synthetic person dataset with known truth, resolves
it, prints the stage report, and scores the clustering: ``evaluate``
reads the run's id and cluster-label arrays directly. Everything is
seeded, so repeated runs produce identical outputs.
"""

import tempfile
import textwrap
from pathlib import Path

from siglink.config import load_config
from siglink.evaluation import evaluate, load_truth
from siglink.pipeline import prepare, run_resolve, run_synth

CONFIG = """\
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
synth: {n_entities: 5000, records_per_entity: 3, corruption_rate: 0.2, seed: 42}
output_dir: out
"""

with tempfile.TemporaryDirectory() as td:
    work = Path(td)
    (work / "config.yaml").write_text(textwrap.dedent(CONFIG))
    config = load_config(work / "config.yaml")

    records_path, truth_path = run_synth(config, work)
    print(f"generated {records_path.name} / {truth_path.name} "
          f"(5000 entities x 3 noisy copies)")
    print()

    result = run_resolve(config, work / "out")
    print(result.report.to_text())
    print()

    # Truth keys map to rows of ``result.ids``, so the labels score as they are.
    data = prepare(config, native_maps=True)
    truth = load_truth(truth_path, data.native_maps["single"],
                       data.native_maps["single"])
    metrics = evaluate(result.labels, truth)
    print(f"precision {metrics.precision:.4f}  recall {metrics.recall:.4f}  "
          f"F {metrics.f_measure:.4f}")
    print(f"(tp={metrics.true_positives}, fp={metrics.false_positives}, "
          f"fn={metrics.false_negatives})")
