"""Seeded corpora for the pipeline benchmark.

Every workload draws its corpus from a pool: a ``name<TAB>code`` table in
``pipebench/reference/<workload>.tsv`` whose ``# group`` comment lines split
the entries into sampling groups.  The pool is generated once from a seed
(``build_pool``) and its reference CSV is recorded next to it, so every row
of every run can be checked.  A run's ``--seed`` picks one entry of each
group (``sample``).  Entries of one group come from one stratum (a chord
count for knots, a component count for links, one census code with other
signs) and cost within COST_TOLERANCE of each other to analyze, so
different seeds give different inputs whose total work stays within a few
percent; without that, the spread of a few 9-chord knots or one slow link
would swamp any change under test.

Both tables are valid ``vbridge batch`` input.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("knots-ideal", "links-search", "census-jobs2")
JOBS = {"census-jobs2": 2}  # workloads timed as one run_pipeline call with a pool
QUANDLE_ORDERS = {"links-search": (3, 5)}  # dihedral quandles R3 and R5
POOL_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = os.path.join(os.path.dirname(HERE), ".pipebench_work")  # run corpora and spans

# The ideal and parity bounds enumerate C(2n, n) minors: about 7 s at 10
# strands.  Knots past this many strands run without those two analyses and
# are counted as capped.
IDEAL_STRAND_CAP = 9

# Pool shape: (chord count, component count) -> pool entries.
KNOT_STRATA = {(5, 1): 48, (6, 1): 12, (7, 1): 8, (8, 1): 12, (9, 1): 2}
LINK_CHORDS = (20, 32)
LINK_STRATA = {2: 70, 3: 70}  # component count -> pool entries
OVERBRIDGE_STRATA = {(n, 1): 2 for n in (30, 45, 60, 75, 90, 100)}
CENSUS_MAX_CHORDS = 4
CENSUS_SIGN_VARIANTS = 2
GROUP_SIZE = 2
COST_TOLERANCE = 0.1


def pool_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.tsv")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.csv")


def is_capped(code: str) -> bool:
    """Knot over IDEAL_STRAND_CAP strands.  Every chord of a knot ends a
    strand at its head, so the strand count is the chord count."""
    return "|" not in code and code.count("O") > IDEAL_STRAND_CAP


def _code(per_comp: list[list[str]]) -> str:
    return "|".join("".join(tokens) if tokens else "." for tokens in per_comp)


def random_code(rng: random.Random, n_chords: int, n_comps: int) -> str:
    """Chord ends placed on random components at random positions, with
    random signs."""
    per_comp: list[list[str]] = [[] for _ in range(n_comps)]
    for label in range(1, n_chords + 1):
        sign = rng.choice("+-")
        for kind in "OU":
            comp = per_comp[rng.randrange(n_comps)]
            comp.insert(rng.randint(0, len(comp)), f"{kind}{label}{sign}")
    return _code(per_comp)


def one_overbridge_code(rng: random.Random, n_chords: int) -> str:
    """Knot whose arrowtails form one consecutive run, rotated at random."""
    signs = {label: rng.choice("+-") for label in range(1, n_chords + 1)}
    tails = list(signs)
    heads = list(signs)
    rng.shuffle(tails)
    rng.shuffle(heads)
    tokens = [f"O{x}{signs[x]}" for x in tails] + [f"U{x}{signs[x]}" for x in heads]
    cut = rng.randrange(len(tokens))
    return "".join(tokens[cut:] + tokens[:cut])


def census_patterns(n_chords: int):
    """Every one-component code with n chords as (kind, label) tokens,
    labels numbered by first appearance: each perfect matching of the 2n
    positions, each chord oriented both ways."""
    if n_chords == 0:
        yield []
        return
    size = 2 * n_chords

    def rec(slots: list, label: int):
        if label > n_chords:
            yield list(slots)
            return
        first = slots.index(None)
        for other in range(first + 1, size):
            if slots[other] is not None:
                continue
            for kinds in ("OU", "UO"):
                slots[first], slots[other] = (kinds[0], label), (kinds[1], label)
                yield from rec(slots, label + 1)
            slots[first] = slots[other] = None

    yield from rec([None] * size, 1)


def _signed(pattern, rng: random.Random) -> str:
    if not pattern:
        return "."
    signs = {label: rng.choice("+-") for _, label in pattern}
    return "".join(f"{kind}{label}{signs[label]}" for kind, label in pattern)


def build_pool(workload: str, seed: int, sample_table) -> list[tuple[str, str, str]]:
    """Pool candidates as (stratum, name, code), ungrouped; ``sample_table``
    holds the (name, code) entries of the repository's sample table.
    Entries of one census code share the stratum that makes them one group."""
    rng = random.Random(f"{workload}:{seed}")
    out = []

    def strata(shape: dict, prefix: str, make):
        for (n, c), count in shape.items():
            for i in range(count):
                name = f"{prefix}{n}c{c}-{i}"
                out.append((f"{prefix}{n}c{c}", name, make(n, c)))

    if workload == "knots-ideal":
        out += [(f"table-{name}", name, code) for name, code in sample_table]
        strata(KNOT_STRATA, "k", lambda n, c: random_code(rng, n, c))
    elif workload == "links-search":
        for c, count in LINK_STRATA.items():
            for i in range(count):
                n = rng.randint(*LINK_CHORDS)
                out.append((f"links{c}", f"l{n}c{c}-{i}", random_code(rng, n, c)))
    elif workload == "census-jobs2":
        index = 0
        for n in range(CENSUS_MAX_CHORDS + 1):
            for pattern in census_patterns(n):
                for v in range(CENSUS_SIGN_VARIANTS):
                    out.append((f"census{index}", f"n{n}-{index}-{v}", _signed(pattern, rng)))
                index += 1
        strata(OVERBRIDGE_STRATA, "ob", lambda n, c: one_overbridge_code(rng, n))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def group_by_cost(candidates, cost_ms: dict) -> list[list[tuple[str, str]]]:
    """Split each stratum into groups of up to GROUP_SIZE entries whose
    recorded costs lie within COST_TOLERANCE of the group's dearest, so the
    entry a seed picks changes the work little.  An entry with no such
    neighbour is a group of its own and is in every corpus.  Census strata
    are one code each and stay whole."""
    by_stratum: dict[str, list] = {}
    for stratum, name, code in candidates:
        by_stratum.setdefault(stratum, []).append((name, code))
    groups = []
    for stratum, members in by_stratum.items():
        if stratum.startswith("census"):
            groups.append(members)
            continue
        members.sort(key=lambda e: cost_ms[e[0]], reverse=True)
        stratum_groups = []
        while members:
            group = [members.pop(0)]
            floor = cost_ms[group[0][0]] * (1.0 - COST_TOLERANCE)
            while members and len(group) < GROUP_SIZE and cost_ms[members[0][0]] >= floor:
                group.append(members.pop(0))
            stratum_groups.append(group)
        groups += reversed(stratum_groups)  # cheapest first
    return groups


def write_pool(path: str, groups, header: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for i, members in enumerate(groups):
            fh.write(f"# group {i}\n")
            for name, code in members:
                fh.write(f"{name}\t{code}\n")


def read_pool(path: str) -> list[list[tuple[str, str]]]:
    groups: list[list[tuple[str, str]]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# group"):
                groups.append([])
            elif line.strip() and not line.startswith("#"):
                name, code = line.rstrip("\n").split("\t")
                groups[-1].append((name, code))
    return groups


def sample(groups, seed: int) -> list[tuple[str, str]]:
    """One entry of every group, chosen by the seed."""
    rng = random.Random(seed)
    return [members[rng.randrange(len(members))] for members in groups]


def write_table(path: str, entries, header: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for name, code in entries:
            fh.write(f"{name}\t{code}\n")
