"""Byte-level golden outputs of a small seeded synthetic run.

Output bytes are the contract: ``clusters.csv``, ``links.csv`` (with the
float bits of every probability), every column of ``tune_results.csv``
except ``wall_time_s``, and the ``index-dump`` file ``index.tsv`` must
not change unless a change says why. The digests below pin them for one
seeded ``synth`` dataset that exercises all four extractor kinds, a
post-verifier and a 54-cell grid.

Probabilities go through the platform's ``pow``; on a platform whose
``pow`` rounds differently the digests would need recomputing.
"""

import hashlib
import textwrap

from siglink.config import load_config
from siglink.pipeline import run_index_dump, run_resolve, run_synth, run_tune

GOLDEN_CONFIG = """\
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
  - id: 3
    parts:
      - {kind: full_attribute, attr: phone}
model: {a: 4.0, b: 0.005}
link: {rho: 0.3, tau: 0.6, verifier: "jaccard:0.2"}
truth: {path: truth.csv}
grids:
  a: [3, 4, 6]
  b: [0.002, 0.005, 0.02]
  rho: [0.2, 0.3]
  tau: [0.4, 0.6, 0.8]
synth: {n_entities: 300, records_per_entity: 3, corruption_rate: 0.2, seed: 42}
output_dir: out
"""

CLUSTERS_SHA256 = "0173af99bb5014deafb22327f9005acb4681b8b91f025446ca1d43b0c1e8bc91"
LINKS_SHA256 = "fe9bd7fc608b9120d8aa21ffac170ca1c875bafae0fe654e21310fdb4febeb73"
# without the wall_time_s column
TUNE_RESULTS_SHA256 = "cc55db66284dfad917545384d05c94945e41452fd216cdfeadfa19c25c3c6977"
INDEX_SHA256 = "5052a3cccc91a5350076185ea975f16eb640d10872bc81edc0d904449cc36753"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def without_wall_time(results_csv: str) -> bytes:
    rows = [line.split(",") for line in results_csv.splitlines()]
    drop = rows[0].index("wall_time_s")
    return "".join(
        ",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows
    ).encode("utf-8")


def test_synth_run_output_bytes(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(textwrap.dedent(GOLDEN_CONFIG))
    config = load_config(cfg_path)
    run_synth(config, tmp_path)
    resolved = run_resolve(config, tmp_path / "resolve")
    tuned = run_tune(config, tmp_path / "tune")
    assert sha256(resolved.clusters_path.read_bytes()) == CLUSTERS_SHA256
    assert sha256(resolved.links_path.read_bytes()) == LINKS_SHA256
    results = tuned.results_path.read_text(encoding="utf-8")
    assert sha256(without_wall_time(results)) == TUNE_RESULTS_SHA256
    assert sha256(run_index_dump(config, tmp_path / "index").read_bytes()) == INDEX_SHA256
