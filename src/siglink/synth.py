"""Seeded synthetic person datasets with controlled corruption.

Each entity gets a base record (name, address, phone drawn from
built-in word pools); copies of it are corrupted per field with a
configurable probability, using typo, token-swap, token-drop, and
digit-noise operations. Output is a records CSV plus a truth CSV of
all within-entity pairs, keyed by the ``rec_id`` column. Everything is
driven by one RNG seed, so identical parameters reproduce identical
bytes.
"""

from __future__ import annotations

import csv
import itertools
import random
from pathlib import Path

from .errors import ConfigError

FIRST_NAMES = [
    "james", "olivia", "william", "amelia", "jack", "charlotte", "noah",
    "isla", "thomas", "mia", "lucas", "grace", "henry", "ruby", "oscar",
    "chloe", "leo", "sophie", "ethan", "zoe", "harry", "evie", "mason",
    "ella", "samuel", "ivy", "oliver", "hannah", "george", "lily",
    "archie", "matilda", "daniel", "sienna", "toby", "audrey", "max",
    "stella", "felix", "hazel",
]
LAST_NAMES = [
    "smith", "jones", "williams", "brown", "wilson", "taylor", "johnson",
    "white", "martin", "anderson", "thompson", "nguyen", "walker",
    "harris", "lee", "ryan", "robinson", "kelly", "king", "davis",
    "wright", "evans", "roberts", "green", "hall", "wood", "clarke",
    "chen", "murphy", "scott", "watson", "mitchell", "singh", "cooper",
    "ward", "bailey", "bell", "murray", "patel", "gray",
]
STREET_NAMES = [
    "elizabeth", "victoria", "george", "william", "king", "queen",
    "church", "station", "park", "high", "market", "chapel", "bridge",
    "mill", "forest", "lake", "river", "spring", "cedar", "wattle",
    "banksia", "acacia", "eucalyptus", "boronia", "jacaranda", "coral",
    "pearl", "amber", "garnet", "opal",
]
STREET_TYPES = ["street", "road", "avenue", "lane", "court", "parade"]
SUBURBS = [
    "ashfield", "belmont", "carlton", "dulwich", "epping", "fairfield",
    "glenelg", "hurstville", "ivanhoe", "jannali", "kensington",
    "lakemba", "mascot", "newtown", "oakleigh", "penrith", "queenscliff",
    "richmond", "stanmore", "toorak", "unley", "verona", "windsor",
    "yarraville", "zetland",
]

_DIGITS = "0123456789"


def _typo(rng: random.Random, word: str) -> str:
    if len(word) < 3:
        return word + word[-1] if word else word
    op = rng.randrange(3)
    i = rng.randrange(len(word) - 1)
    if op == 0:  # swap adjacent characters
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    if op == 1:  # drop a character
        return word[:i] + word[i + 1:]
    return word[:i] + word[i] + word[i:]  # double a character


def _corrupt_name(rng: random.Random, tokens: list[str]) -> list[str]:
    tokens = list(tokens)
    op = rng.randrange(3)
    if op == 0 and len(tokens) >= 2:  # swap token order
        i, j = rng.sample(range(len(tokens)), 2)
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif op == 1 and len(tokens) >= 2:  # drop a token
        del tokens[rng.randrange(len(tokens))]
    else:
        i = rng.randrange(len(tokens))
        tokens[i] = _typo(rng, tokens[i])
    return tokens


def _corrupt_address(rng: random.Random, tokens: list[str]) -> list[str]:
    tokens = list(tokens)
    if rng.randrange(2) == 0 and len(tokens) >= 2:
        del tokens[rng.randrange(len(tokens))]
    else:
        i = rng.randrange(len(tokens))
        tokens[i] = _typo(rng, tokens[i])
    return tokens


def _corrupt_phone(rng: random.Random, phone: str) -> str:
    i = rng.randrange(len(phone))
    if rng.randrange(2) == 0:
        return phone[:i] + rng.choice(_DIGITS) + phone[i + 1:]
    return phone[:i] + phone[i + 1:]


def check_parameters(where: str, n_entities: int, records_per_entity: int,
                     corruption_rate: float) -> None:
    """Raise ``ConfigError`` naming the first parameter out of range,
    as key ``where + name``."""
    for name, size in (("n_entities", n_entities), ("records_per_entity", records_per_entity)):
        if size < 1:
            raise ConfigError(f"{where}{name} must be >= 1, got {size}")
    if not 0.0 <= corruption_rate <= 1.0:
        raise ConfigError(f"{where}corruption_rate must be in [0, 1], got {corruption_rate}")


def generate_dataset(
    n_entities: int,
    records_per_entity: int,
    corruption_rate: float,
    seed: int,
) -> tuple[list[dict[str, str]], list[tuple[str, str]]]:
    """Build synthetic rows and their ground-truth pairs.

    Returns (rows, truth) where each row has columns rec_id, name,
    address, phone, and truth holds every within-entity rec_id pair.
    """
    check_parameters("", n_entities, records_per_entity, corruption_rate)
    rng = random.Random(seed)
    rows: list[dict[str, str]] = []
    truth: list[tuple[str, str]] = []
    rid = 0
    for _ in range(n_entities):
        name = [rng.choice(FIRST_NAMES)]
        if rng.random() < 0.25:
            name.append(rng.choice(FIRST_NAMES))
        name.append(rng.choice(LAST_NAMES))
        address = [
            str(rng.randint(1, 980)),
            rng.choice(STREET_NAMES),
            rng.choice(STREET_TYPES),
            rng.choice(SUBURBS),
        ]
        phone = "04" + "".join(rng.choice(_DIGITS) for _ in range(8))
        entity_ids: list[str] = []
        for _ in range(records_per_entity):
            n_t, a_t, ph = list(name), list(address), phone
            if rng.random() < corruption_rate:
                n_t = _corrupt_name(rng, n_t)
            if rng.random() < corruption_rate:
                a_t = _corrupt_address(rng, a_t)
            if rng.random() < corruption_rate:
                ph = _corrupt_phone(rng, ph)
            rec_id = f"r{rid}"
            rid += 1
            rows.append({
                "rec_id": rec_id,
                "name": " ".join(n_t),
                "address": " ".join(a_t),
                "phone": ph,
            })
            entity_ids.append(rec_id)
        truth.extend(itertools.combinations(entity_ids, 2))
    return rows, truth


def write_dataset(
    rows: list[dict[str, str]],
    truth: list[tuple[str, str]],
    records_path: str | Path,
    truth_path: str | Path,
) -> None:
    """Write records and truth CSVs with stable byte-level output."""
    records_path, truth_path = Path(records_path), Path(truth_path)
    with records_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["rec_id", "name", "address", "phone"],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    with truth_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id_a", "id_b"])
        writer.writerows(truth)
