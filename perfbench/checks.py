"""Independent checks of siglink's outputs.

Nothing here imports siglink: inputs are re-read from the raw CSVs,
tokenized with this module's own regex, deduplicated, closed under
union-find, re-extracted and scored by code written for the benchmark.
Each check returns a list of error strings; an empty list means the
outputs passed. Every error starts with a fixed tag (``partition:``,
``label:``, ...) so tests can tell which check fired.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import yaml

_SPLIT = re.compile(r"[\W_]+")
_ASCII_DIGITS = re.compile(r"[0-9]+")
PART_SEP, TOKEN_SEP = "◦", "·"
DEFAULT_B_BASE = 10_000_000
DEFAULT_K_CAP = 10_000
PROBABILITY_SAMPLE = 200
TUNE_HEADER = ["a", "b", "rho", "tau", "links", "tp", "fp", "fn",
               "precision", "recall", "f_measure", "wall_time_s"]


def tokens(raw: str) -> tuple[str, ...]:
    """Lowercase alphanumeric runs, split on everything else (``_`` too)."""
    return tuple(filter(None, _SPLIT.split(raw.lower())))


@dataclass
class Inputs:
    """The raw inputs as the benchmark reads them."""

    cfg: dict
    schema: list[str]
    attrs: dict[int, tuple[tuple[str, ...], ...]]   # id -> tokens per schema attribute
    source: dict[int, str]
    native: dict[str, dict[str, int]]               # source tag -> native key -> id
    canon: dict[int, int]                           # id -> smallest id of its exact-duplicate class
    truth: set[tuple[int, int]]

    @property
    def two_sources(self) -> bool:
        return set(self.native) == {"a", "b"}


def load_inputs(cfg_path: Path) -> Inputs:
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    base_dir = cfg_path.parent
    schema = list(cfg["schema"])
    attrs: dict[int, tuple[tuple[str, ...], ...]] = {}
    source: dict[int, str] = {}
    native: dict[str, dict[str, int]] = {}
    for tag in sorted(cfg["inputs"]):
        spec = cfg["inputs"][tag]
        columns = spec.get("columns", {})
        next_id = cfg.get("source_b_id_base", DEFAULT_B_BASE) if tag == "b" else 0
        native[tag] = {}
        with (base_dir / spec["path"]).open(newline="", encoding=spec.get("encoding", "utf-8-sig")) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = [header.index(columns.get(a, a)) for a in schema]
            key_col = header.index(spec["id_column"])
            for row in reader:
                if not row:
                    continue
                attrs[next_id] = tuple(tokens(row[c]) for c in cols)
                source[next_id] = tag
                native[tag][row[key_col]] = next_id
                next_id += 1
    canon: dict[int, int] = {}
    first: dict[tuple, int] = {}
    for rid in sorted(attrs):
        canon[rid] = first.setdefault((source[rid], attrs[rid]), rid)
    truth: set[tuple[int, int]] = set()
    t = cfg["truth"]
    map_a = native["a" if "a" in native else "single"]
    map_b = native["b" if "b" in native else "single"]
    with (base_dir / t["path"]).open(newline="", encoding=t.get("encoding", "utf-8-sig")) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ca, cb = header.index(t.get("column_a", "id_a")), header.index(t.get("column_b", "id_b"))
        for row in reader:
            x, y = map_a[row[ca]], map_b[row[cb]]
            truth.add((min(x, y), max(x, y)))
    return Inputs(cfg, schema, attrs, source, native, canon, truth)


# --- union-find and pairwise scoring ----------------------------------------

def closure_labels(ids, edges) -> dict[int, int]:
    """Minimum id of each connected component, by union-find."""
    parent = {i: i for i in ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)   # the root stays the smallest id
    return {i: find(i) for i in ids}


def score(labels: dict[int, int], inputs: Inputs) -> tuple[int, int, int]:
    """Pairwise (tp, fp, fn) of a labelling; cross-source pairs only
    when there are two sources."""
    clusters: dict[int, Counter] = {}
    for rid, lab in labels.items():
        clusters.setdefault(lab, Counter())[inputs.source[rid]] += 1
    predicted = 0
    for by_src in clusters.values():
        n = sum(by_src.values())
        predicted += n * (n - 1) // 2
        if inputs.two_sources:
            predicted -= sum(c * (c - 1) // 2 for c in by_src.values())
    tp = sum(1 for x, y in inputs.truth
             if labels[x] == labels[y] and not (inputs.two_sources and inputs.source[x] == inputs.source[y]))
    return tp, predicted - tp, len(inputs.truth) - tp


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


# --- candidate signatures, re-extracted -------------------------------------

def _part_values(part: dict, toks: tuple[str, ...], random_limit: int) -> list[tuple[str, ...]]:
    kind = part["kind"]
    if kind == "consecutive_words":
        n = part["n"]
        return [toks[i:i + n] for i in range(len(toks) - n + 1)]
    if kind == "random_words":
        k = part["k"]
        if len(toks) < k or len(toks) > random_limit:
            return []
        return [tuple(sorted(c)) for c in itertools.combinations(toks, k)]
    if kind == "last_digits":
        digits = "".join(t for t in toks if _ASCII_DIGITS.fullmatch(t))
        return [(digits[-part["d"]:],)] if len(digits) >= part["d"] else []
    if kind == "full_attribute":
        return [toks] if toks else []
    raise ValueError(f"unknown extractor kind {kind!r}")


Key = tuple  # (template id, one value tuple per part)


def _template_values(tpl: dict, by_attr: dict, inputs: Inputs):
    """Deduplicated values of each part, or None if a part yields none."""
    limit = inputs.cfg.get("extract", {}).get("random_words_attr_limit", 12)
    values = []
    for part in tpl["parts"]:
        vals = list(dict.fromkeys(_part_values(part, by_attr[part["attr"]], limit)))
        if not vals:
            return None
        values.append(vals)
    return values


def keys_of(attrs: tuple[tuple[str, ...], ...], inputs: Inputs) -> set[Key]:
    """Every candidate-signature key of one record."""
    cap = inputs.cfg.get("extract", {}).get("combination_cap", 64)
    by_attr = dict(zip(inputs.schema, attrs))
    out: set[Key] = set()
    for tpl in inputs.cfg["templates"]:
        values = _template_values(tpl, by_attr, inputs)
        if values is not None and math.prod(map(len, values)) <= cap:
            out.update((tpl["id"], combo) for combo in itertools.product(*values))
    return out


def encode(key: Key) -> str:
    """The key's wire string ``tid◦tok·tok◦…``; its order is the order
    evidence probabilities are multiplied in."""
    return f"{key[0]}{PART_SEP}" + PART_SEP.join(TOKEN_SEP.join(v) for v in key[1])


_PART_COST = {"last_digits": 0, "full_attribute": 1, "consecutive_words": 2, "random_words": 3}


def _may_hold(attrs: tuple[tuple[str, ...], ...], inputs: Inputs,
              wanted: list[list[tuple[dict, set]]]) -> bool:
    """Cheap exact prefilter: a record can hold a wanted key only if
    every part of that key's template yields one of the wanted values.
    ``wanted`` holds, per template, (part, wanted values) pairs with the
    cheapest part first; the first miss rules a template out."""
    limit = inputs.cfg.get("extract", {}).get("random_words_attr_limit", 12)
    by_attr = dict(zip(inputs.schema, attrs))
    return any(all(not values.isdisjoint(_part_values(part, by_attr[part["attr"]], limit))
                   for part, values in parts)
               for parts in wanted)


def signature_p(a: float, b: float, k: int) -> float:
    return 1.0 / (1.0 + a ** k * b)


def k_max(a: float, b: float, rho: float, k_cap: int) -> int:
    k = 0
    while k < k_cap and signature_p(a, b, k + 1) > rho:
        k += 1
    return k


# --- output readers ---------------------------------------------------------

def read_clusters(path: Path) -> tuple[list[str], list[tuple[int, int]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [(int(r), int(e)) for r, e in rows[1:]]


def read_links(path: Path) -> tuple[list[str], list[tuple[int, int, float, int]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [(int(a), int(b), float(p), int(n)) for a, b, p, n in rows[1:]]


# --- resolve ---------------------------------------------------------------

def check_resolve(inputs: Inputs, out_dir: Path, sample_seed: int,
                  cfg: dict | None = None) -> tuple[list[str], dict]:
    """Check clusters.csv and links.csv against the raw inputs and the
    run's config (``inputs.cfg`` unless given).

    Returns (errors, info); info holds precision and recall against the
    truth, and the link and cluster counts.
    """
    errors: list[str] = []
    cfg = cfg or inputs.cfg
    head, clusters = read_clusters(out_dir / "clusters.csv")
    if head != ["record_id", "entity_id"]:
        errors.append(f"format: clusters.csv header {head}")
    labels = dict(clusters)
    if len(labels) != len(clusters) or set(labels) != set(inputs.attrs):
        errors.append(f"partition: clusters.csv has {len(clusters)} rows over "
                      f"{len(labels)} ids, inputs have {len(inputs.attrs)} records")
        return errors, {}
    members: dict[int, list[int]] = {}
    for rid, lab in clusters:
        members.setdefault(lab, []).append(rid)
    bad = [lab for lab, ms in members.items() if lab != min(ms)]
    if bad:
        errors.append(f"label: {len(bad)} clusters are not labelled by their minimum id, e.g. {bad[0]}")
    split = [rid for rid in labels if labels[rid] != labels[inputs.canon[rid]]]
    if split:
        errors.append(f"dedup: {len(split)} exact duplicates have another label than their "
                      f"class, e.g. record {split[0]}")

    head, links = read_links(out_dir / "links.csv")
    if head != ["id_a", "id_b", "probability", "evidence_count"]:
        errors.append(f"format: links.csv header {head}")
    tau = cfg["link"]["tau"]
    cross = cfg["link"].get("cross_source_only", inputs.two_sources)
    verifier = cfg["link"].get("verifier", "none")
    jaccard = float(verifier.partition(":")[2]) if verifier.startswith("jaccard:") else None
    for ia, ib, p, _ in links:
        if not ia < ib:
            errors.append(f"link-order: link ({ia}, {ib}) has id_a >= id_b")
        elif ia not in inputs.attrs or ib not in inputs.attrs:
            errors.append(f"link-id: link ({ia}, {ib}) names an unknown record")
        elif not p > tau:
            errors.append(f"link-tau: link ({ia}, {ib}) has probability {p!r} <= tau {tau}")
        elif cross and inputs.source[ia] == inputs.source[ib]:
            errors.append(f"cross-source: link ({ia}, {ib}) joins two records of source "
                          f"{inputs.source[ia]!r}")
        elif inputs.canon[ia] != ia or inputs.canon[ib] != ib:
            errors.append(f"link-id: link ({ia}, {ib}) names a removed duplicate")
        elif jaccard is not None:
            sa = {t for attr in inputs.attrs[ia] for t in attr}
            sb = {t for attr in inputs.attrs[ib] for t in attr}
            if (len(sa & sb) / len(sa | sb) if sa | sb else 1.0) < jaccard:
                errors.append(f"verifier: link ({ia}, {ib}) fails jaccard >= {jaccard}")
        if len(errors) > 20:
            return errors, {}
    if len({(ia, ib) for ia, ib, _, _ in links}) != len(links):
        errors.append("link-order: links.csv repeats a pair")
    if [(ia, ib) for ia, ib, _, _ in links] != sorted((ia, ib) for ia, ib, _, _ in links):
        errors.append("link-order: links.csv is not sorted by (id_a, id_b)")

    closure = closure_labels(inputs.attrs, itertools.chain(
        ((ia, ib) for ia, ib, _, _ in links if ia in inputs.attrs and ib in inputs.attrs),
        inputs.canon.items()))
    wrong = [rid for rid in labels if labels[rid] != closure[rid]]
    if wrong:
        errors.append(f"closure: {len(wrong)} records are labelled unlike the transitive "
                      f"closure of links.csv, e.g. record {wrong[0]}")
    errors += _check_probabilities(inputs, cfg, links, sample_seed)

    tp, fp, fn = score(labels, inputs)
    precision, recall, f = prf(tp, fp, fn)
    info = {"links": len(links), "clusters": len(members), "tp": tp, "fp": fp, "fn": fn,
            "precision": precision, "recall": recall, "f_measure": f}
    return errors, info


def _check_probabilities(inputs: Inputs, cfg: dict, links, sample_seed: int) -> list[str]:
    """Recompute a seeded sample of links from independently counted
    key recurrences: p = 1 - prod(1 - 1/(1 + a^k b)) over the pair's
    shared keys with recurrence k <= k_max, multiplied in key order.

    Evidence elimination is not modelled: with fixed-length template
    parts no shared key nests in another (see the README), and a link
    whose elimination did remove evidence would show up here.
    """
    links = [link for link in links if link[0] in inputs.attrs and link[1] in inputs.attrs]
    if not links:
        return []
    a, b = float(cfg["model"]["a"]), float(cfg["model"]["b"])
    cap = k_max(a, b, cfg["link"]["rho"], cfg["model"].get("k_cap", DEFAULT_K_CAP))
    sample = random.Random(sample_seed).sample(links, min(PROBABILITY_SAMPLE, len(links)))
    keys = {rid: keys_of(inputs.attrs[rid], inputs) for link in sample for rid in link[:2]}
    wanted = set().union(*(keys[ia] & keys[ib] for ia, ib, _, _ in sample))
    per_tid: dict = {}
    for tid, combo in wanted:
        per_part = per_tid.setdefault(tid, [set() for _ in combo])
        for i, v in enumerate(combo):
            per_part[i].add(v)
    wanted_parts = [sorted(zip(tpl["parts"], per_tid[tpl["id"]]), key=lambda pv: _PART_COST[pv[0]["kind"]])
                    for tpl in inputs.cfg["templates"] if tpl["id"] in per_tid]
    recurrence: Counter = Counter()
    for rid, canon in inputs.canon.items():
        if rid == canon and _may_hold(inputs.attrs[rid], inputs, wanted_parts):
            recurrence.update(keys_of(inputs.attrs[rid], inputs) & wanted)
    errors = []
    for ia, ib, p, count in sample:
        shared = sorted((k for k in keys[ia] & keys[ib] if recurrence[k] <= cap), key=encode)
        prod = 1.0
        for k in shared:
            prod *= 1.0 - signature_p(a, b, recurrence[k])
        if (1.0 - prod, len(shared)) != (p, count):
            errors.append(f"probability: link ({ia}, {ib}) reads p={p!r} from {count} keys, "
                          f"recomputed p={1.0 - prod!r} from {len(shared)} keys")
    return errors


# --- tune --------------------------------------------------------------------

def read_tune(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_tune(inputs: Inputs, out_dir: Path) -> tuple[list[str], dict]:
    """Check tune_results.csv and best_params.yaml.

    Returns (errors, best) where best holds the best row's parameters
    and counts, as this module picks it by the README tie rule.
    """
    errors: list[str] = []
    g = inputs.cfg["grids"]
    head, rows = read_tune(out_dir / "tune_results.csv")
    if head != TUNE_HEADER:
        return [f"format: tune_results.csv header {head}"], {}
    grid = list(itertools.product(*(map(float, g[k]) for k in ("a", "b", "rho", "tau"))))
    params = [tuple(float(x) for x in row[:4]) for row in rows]
    if params != grid:
        errors.append(f"tune-order: {len(rows)} rows do not follow the {len(grid)} grid cells "
                      f"in nested (a, b, rho, tau) order")
        return errors, {}
    cells = []
    for row, (a, b, rho, tau) in zip(rows, params):
        links, tp, fp, fn = map(int, row[4:8])
        p, r, f = prf(tp, fp, fn)
        if row[8:11] != [f"{p:.6f}", f"{r:.6f}", f"{f:.6f}"]:
            errors.append(f"tune-score: row {row[:4]} reads {row[8:11]}, counts give "
                          f"{p:.6f}, {r:.6f}, {f:.6f}")
        cells.append({"a": a, "b": b, "rho": rho, "tau": tau, "links": links,
                      "tp": tp, "fp": fp, "fn": fn, "precision": p, "recall": r, "f_measure": f})
    if {c["tp"] + c["fn"] for c in cells} != {len(inputs.truth)}:
        errors.append(f"tune-truth: tp + fn differs between cells or from the "
                      f"{len(inputs.truth)} truth pairs")
    for _, group in itertools.groupby(cells, key=lambda c: (c["a"], c["b"], c["rho"])):
        by_tau = sorted(group, key=lambda c: c["tau"])
        if any(x["links"] < y["links"] for x, y in zip(by_tau, by_tau[1:])):
            errors.append(f"tune-monotone: links rise with tau at a={by_tau[0]['a']} "
                          f"b={by_tau[0]['b']} rho={by_tau[0]['rho']}")
    best = cells[0]
    for c in cells[1:]:   # ties: higher precision, then lower tau, then earlier cell
        if (c["f_measure"], c["precision"], -c["tau"]) > (best["f_measure"], best["precision"], -best["tau"]):
            best = c
    written = yaml.safe_load((out_dir / "best_params.yaml").read_text(encoding="utf-8"))
    chosen = (written["model"]["a"], written["model"]["b"], written["link"]["rho"], written["link"]["tau"])
    if chosen != (best["a"], best["b"], best["rho"], best["tau"]):
        errors.append(f"tune-best: best_params.yaml picks {chosen}, the tie rule picks "
                      f"{(best['a'], best['b'], best['rho'], best['tau'])}")
    return errors, best


def best_config(inputs: Inputs, best: dict) -> dict:
    """The run config with the tuned parameters in place."""
    cfg = dict(inputs.cfg)
    cfg["model"] = {**cfg["model"], "a": best["a"], "b": best["b"]}
    cfg["link"] = {**cfg["link"], "rho": best["rho"], "tau": best["tau"]}
    return cfg


def check_best_resolve(inputs: Inputs, best: dict, out_dir: Path) -> list[str]:
    """A resolve with the best parameters must score the best row's counts."""
    _, clusters = read_clusters(out_dir / "clusters.csv")
    got = score(dict(clusters), inputs)
    want = (best["tp"], best["fp"], best["fn"])
    return [] if got == want else [f"tune-resolve: resolve with the best parameters scores "
                                   f"(tp, fp, fn) = {got}, the best row reads {want}"]


# --- determinism ------------------------------------------------------------

def output_digest(out_dir: Path, command: str) -> bytes:
    """The bytes two runs on the same inputs must reproduce; for tune,
    every column but wall_time_s."""
    if command == "resolve":
        return b"".join((out_dir / n).read_bytes() for n in ("clusters.csv", "links.csv"))
    _, rows = read_tune(out_dir / "tune_results.csv")
    return repr([r[:-1] for r in rows]).encode() + (out_dir / "best_params.yaml").read_bytes()
