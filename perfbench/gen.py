"""Seeded input generators for the benchmark workloads.

Every workload's inputs are a pure function of its seed: the same seed
writes the same bytes. The program under test only ever sees the files
written here (records CSVs, a truth CSV and a config YAML).

Regenerate the inputs of one workload, or of all of them:

    python3 perfbench/gen.py --workload resolve-pubs-2src --seed 42 --out /tmp/pubs
    python3 perfbench/gen.py --workload all --seed 42 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import csv
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # "resolve" or "tune"
    base_config: str       # repo config the templates and model come from
    n_entities: int = 0    # person workloads: siglink synth size
    pubs_rows: int = 0     # pubs workload: source-a rows


WORKLOADS = {
    w.name: w for w in (
        Workload("resolve-person-300k", "resolve", "configs/synth_example.yaml",
                 n_entities=100_000),
        Workload("tune-person-15k", "tune", "configs/synth_example.yaml",
                 n_entities=5_000),
        Workload("resolve-pubs-2src", "resolve", "configs/benchmarks/dblp_acm.yaml",
                 pubs_rows=20_000),
    )
}

# Jaccard threshold of the pubs workload's post-verifier. Every
# distractor scores below it by construction (see make_pubs).
PUBS_JACCARD = 0.6


# --- person workloads: siglink synth output --------------------------------

def make_person(w: Workload, seed: int, out: Path) -> dict:
    """Write records.csv / truth.csv with the program's own synthesizer
    and return the run config (synth_example templates, model, link)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from siglink.synth import generate_dataset, write_dataset

    cfg = yaml.safe_load((ROOT / w.base_config).read_text(encoding="utf-8"))
    s = cfg.pop("synth")
    rows, truth = generate_dataset(w.n_entities, s["records_per_entity"],
                                   s["corruption_rate"], seed)
    write_dataset(rows, truth, out / "records.csv", out / "truth.csv")
    cfg["inputs"] = {"single": {"path": "records.csv", "id_column": "rec_id"}}
    cfg["truth"] = {"path": "truth.csv"}
    return cfg


# --- bibliographic two-source workload -------------------------------------

_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "z", "br", "ch", "cl", "dr", "gr", "pl", "pr", "sh",
           "st", "tr", "th"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
_CODAS = ["", "", "n", "r", "s", "l", "m", "t", "x", "nd", "st"]
# latin-1 letters so that the encoding matters: decoded as utf-8 they fail
_ACCENTED = ["müller", "gómez", "sørensen", "françois", "núñez", "björk",
             "jürgen", "andré", "zoë", "ángel", "søren", "josé", "hélène",
             "æsa", "renée", "günther", "çelik", "ólafur"]
_VENUES = ["SIGMOD", "VLDB", "ICDE", "TODS", "VLDBJ", "SIGMOD Record", "EDBT",
           "PODS", "KDD", "CIKM"]


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                   for _ in range(syllables))


def _vocabulary(rng: random.Random, size: int, syllables: tuple[int, int]) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < size:
        words[_word(rng, rng.randint(*syllables))] = None
    return list(words)


def _typo(rng: random.Random, word: str) -> str:
    if len(word) < 3:
        return word
    i = rng.randrange(len(word) - 1)
    op = rng.randrange(3)
    if op == 0:
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    if op == 1:
        return word[:i] + word[i + 1:]
    return word[:i] + word[i] + word[i:]


def _tokens(text: str) -> set[str]:
    return set("".join(c if c.isalnum() else " " for c in text.lower()).split())


def _jaccard(x: set[str], y: set[str]) -> float:
    return len(x & y) / len(x | y)


def make_pubs(w: Workload, seed: int, out: Path) -> dict:
    """Two latin-1 CSVs of bibliographic records plus truth.

    About 70% of source-a rows get a corrupted copy in b (title typo
    or dropped word, abbreviated or dropped author). Distractor b rows
    reuse the title of an a row that has no copy, under at least four
    new authors that share no token with that a row, added until the
    pair's Jaccard similarity is below PUBS_JACCARD - 0.05, so the
    verifier must reject it. The rest of b is unrelated records.
    Titles draw 6-12 words from a Zipf-like vocabulary, so frequent
    words make recurring (pruned) windows.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 6000, (1, 3))
    cum = list(itertools.accumulate(1.0 / (r + 3) for r in range(len(vocab))))
    firsts = _vocabulary(rng, 300, (1, 2)) + _ACCENTED
    lasts = _vocabulary(rng, 3000, (2, 3)) + _ACCENTED

    def title() -> list[str]:
        return rng.choices(vocab, cum_weights=cum, k=rng.randint(6, 12))

    def author() -> list[str]:
        return [rng.choice(firsts), rng.choice(lasts)]

    def authors() -> list[list[str]]:
        return [author() for _ in range(rng.choices((1, 2, 3), (30, 45, 25))[0])]

    def fmt_title(words: list[str]) -> str:
        return " ".join(words).capitalize()

    def fmt_authors(auths: list[list[str]]) -> str:
        return ", ".join(" ".join(p.capitalize() for p in a) for a in auths)

    n_a = w.pubs_rows
    a_rows, a_pubs = [], []
    for i in range(n_a):
        t, au, year = title(), authors(), rng.randint(1990, 2020)
        venue = rng.choice(_VENUES)
        a_pubs.append((t, au, year, venue))
        a_rows.append({"id": f"conf/{venue.split()[0].lower()}/{au[0][1].capitalize()}{year % 100:02d}-{i}",
                       "title": fmt_title(t), "authors": fmt_authors(au),
                       "venue": venue, "year": str(year)})

    copied = set(rng.sample(range(n_a), round(0.7 * n_a)))
    uncopied = sorted(set(range(n_a)) - copied)
    distractor_src = rng.sample(uncopied, round(0.1 * n_a))
    b_pubs: list[tuple[list[str], list[list[str]], int, str, int | None]] = []
    for i in sorted(copied):
        t, au, year, venue = a_pubs[i]
        t, au = list(t), [list(a) for a in au]
        r = rng.random()
        if r < 0.35:
            j = rng.randrange(len(t))
            t[j] = _typo(rng, t[j])
        elif r < 0.45 and len(t) > 6:
            del t[rng.randrange(len(t))]
        r = rng.random()
        if r < 0.3:
            au[0][0] = au[0][0][0]
        elif r < 0.4 and len(au) > 1:
            au.pop()
        b_pubs.append((t, au, year, venue.lower(), i))
    for i in distractor_src:
        t, au, year, venue = a_pubs[i]
        a_toks = _tokens(fmt_title(t) + " " + fmt_authors(au))
        taken = set(a_toks)
        new: list[list[str]] = []
        while len(new) < 4 or _jaccard(a_toks, _tokens(fmt_title(t) + " " + fmt_authors(new))) \
                >= PUBS_JACCARD - 0.05:
            cand = author()
            if len(set(cand)) == 2 and not taken & set(cand):
                new.append(cand)
                taken |= set(cand)
        b_pubs.append((list(t), new, year + rng.randint(1, 5), rng.choice(_VENUES), None))
    while len(b_pubs) < n_a:
        b_pubs.append((title(), authors(), rng.randint(1990, 2020), rng.choice(_VENUES), None))
    rng.shuffle(b_pubs)

    b_ids = rng.sample(range(100_000, 1_000_000), len(b_pubs))
    b_rows, truth = [], []
    for (t, au, year, venue, src), bid in zip(b_pubs, b_ids):
        b_rows.append({"id": str(bid), "title": fmt_title(t), "authors": fmt_authors(au),
                       "venue": venue, "year": str(year)})
        if src is not None:
            truth.append((a_rows[src]["id"], str(bid)))
    truth.sort()

    fields = ["id", "title", "authors", "venue", "year"]
    for name, rows in (("a.csv", a_rows), ("b.csv", b_rows)):
        with (out / name).open("w", newline="", encoding="latin-1") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    with (out / "truth.csv").open("w", newline="", encoding="latin-1") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["idDBLP", "idACM"])
        writer.writerows(truth)

    cfg = yaml.safe_load((ROOT / w.base_config).read_text(encoding="utf-8"))
    cfg["inputs"] = {
        "a": {"path": "a.csv", "id_column": "id", "encoding": "latin-1"},
        "b": {"path": "b.csv", "id_column": "id", "encoding": "latin-1"},
    }
    cfg["truth"].update(path="truth.csv")
    cfg["link"].update(cross_source_only=True, verifier=f"jaccard:{PUBS_JACCARD}")
    return cfg


def generate(w: Workload, seed: int, out: Path) -> Path:
    """Write one workload's inputs and config into ``out``; returns the
    config path. Relative paths in it resolve against ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = (make_pubs if w.pubs_rows else make_person)(w, seed, out)
    cfg["output_dir"] = "out"
    cfg_path = out / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=False, allow_unicode=True),
                        encoding="utf-8")
    return cfg_path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        out = args.out / name if args.workload == "all" else args.out
        print(generate(WORKLOADS[name], args.seed, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
