"""The benchmark's output checker (perfbench/checks.py) re-extracts keys
with the extraction caps and the recurrence cap written into it, since
it imports nothing from siglink. This keeps those copies equal to the
package's constants, on records that hit each cap.
"""

import sys
import textwrap
from pathlib import Path

import numpy as np

from siglink import sigprob
from siglink.config import load_config
from siglink.indexer import build_raw_postings
from siglink.pipeline import prepare

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402

# No ``extract`` section and no ``model.k_cap``: both sides use their defaults.
# ``copy`` is in no template: it tells a row from its copy.
CONFIG = """\
schema: [name, addr, copy]
inputs:
  single: {path: records.csv, id_column: id}
templates:
  - id: 1
    parts: [{kind: random_words, attr: name, k: 2}]
  - id: 2
    parts: [{kind: consecutive_words, attr: name, n: 1},
            {kind: consecutive_words, attr: addr, n: 1}]
model: {a: 2.0, b: 0.25}
link: {rho: 0.2, tau: 0.3}
truth: {path: truth.csv}
"""


def words(prefix, n):
    return " ".join(f"{prefix}{i}" for i in range(n))


# name tokens, addr tokens: template 1's combinations, template 2's.
ROWS = [
    (words("n", 12), words("a", 2)),   # 66 > 64: capped; 24
    (words("n", 13), words("a", 5)),   # 13 tokens: too long; 65 > 64: capped
    (words("n", 8), words("a", 8)),    # 28; exactly 64: kept
    ("ann lee", "x"),                  # 1; 2
]


def test_checker_keys_match_the_build(tmp_path):
    # Each row beside a copy with the same keys (ids 4 to 7), so that the
    # build stores every key: one found in one record is only counted.
    lines = ["id,name,addr,copy"] + [f"{tag}{i},{name},{addr},{tag}" for tag in "rs"
                                     for i, (name, addr) in enumerate(ROWS)]
    (tmp_path / "records.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "truth.csv").write_text("id_a,id_b\nr0,r1\n")
    (tmp_path / "config.yaml").write_text(textwrap.dedent(CONFIG))
    inputs = checks.load_inputs(tmp_path / "config.yaml")
    config = load_config(tmp_path / "config.yaml")
    data = prepare(config)
    raw = build_raw_postings(data.canonical, config.templates)
    built = {rid: set() for rid in data.canonical.ids.tolist()}
    keys = np.arange(len(raw))
    for key, postings in zip(raw.key_strings(keys), raw.postings(keys)):
        for rid in postings:
            built[rid].add(key)
    assert built == {rid: {checks.encode(key) for key in checks.keys_of(inputs.attrs[rid], inputs)}
                     for rid in built}
    assert raw.unstored == 0
    assert (raw.cap_skipped, raw.long_attr_random_skips) == (4, 2)
    assert len(built[2]) == len(built[6]) == 28 + 64


def test_checker_recurrence_cap_is_the_package_constant():
    assert checks.DEFAULT_K_CAP == sigprob.K_CAP
