"""Finite quandles and coloring counts of diagram strands.

A quandle is a finite set with a binary operation x > y that is idempotent,
right-invertible (for fixed y, x -> x > y permutes the set) and
self-distributive.  A diagram coloring assigns a quandle element to every
strand so that at each arrowhead a_after = a_before >^e b with b the tail
strand's element and e the chord sign.  A coloring is fixed by its values
on the seeds of a stored coloring sequence: walking the sequence gives
every other strand's value, and the arrowhead relations not used as moves
decide whether the seed values extend to a coloring.

For an Alexander quandle (Z/p, p prime, x > y = u*x + (1-u)*y) every
value is a linear form in the seed values, and the leftover relations form
a linear system over Z/p whose rank r gives the count p^(seeds - r).  Its
column for seed i is what the relations read with seed i at 1 and the
others at 0, so the sequence is walked once per seed with one number mod p
per strand.  Every other quandle enumerates the |X|^seeds seed
assignments.  Both equal the brute-force count over all strand
assignments.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    NotDistributiveError,
    NotIdempotentError,
    NotRightInvertibleError,
    QuandleAxiomError,
    check_deadline,
)
from .gauss import GaussDiagram, strand_table
from .search import WirtingerResult, apply_coloring_moves, sequence_relations, wirtinger_number


class FiniteQuandle(NamedTuple):
    table: tuple[tuple[int, ...], ...]  # table[x][y] = x > y
    inverse: tuple[tuple[int, ...], ...]  # inverse[x][y] = x >^-1 y
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.table)

    def apply(self, x: int, y: int, sign: int = 1) -> int:
        return self.table[x][y] if sign > 0 else self.inverse[x][y]


def validate_quandle(rows: Sequence[Sequence[int]], name: str = "") -> FiniteQuandle:
    """Check the three axioms and build the right-inverse table.

    Raises NotIdempotentError, NotRightInvertibleError or
    NotDistributiveError with a witness on the first failure.
    """
    n = len(rows)
    table = tuple(tuple(int(v) for v in row) for row in rows)
    if any(len(row) != n for row in table):
        raise ValueError("operation table must be square")
    if any(not 0 <= v < n for row in table for v in row):
        raise ValueError("table entries must lie in 0..n-1")

    for x in range(n):
        if table[x][x] != x:
            raise NotIdempotentError(f"{x} > {x} = {table[x][x]}", witness=x)
    inv = [[-1] * n for _ in range(n)]
    for y in range(n):
        seen = set()
        for x in range(n):
            v = table[x][y]
            if v in seen:
                raise NotRightInvertibleError(
                    f"column {y} repeats value {v}", witness=y
                )
            seen.add(v)
            inv[v][y] = x
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = table[table[x][y]][z]
                rhs = table[table[x][z]][table[y][z]]
                if lhs != rhs:
                    raise NotDistributiveError(
                        f"({x}>{y})>{z} != ({x}>{z})>({y}>{z})", witness=(x, y, z)
                    )
    return FiniteQuandle(table, tuple(tuple(r) for r in inv), name)


def trivial_quandle(n: int) -> FiniteQuandle:
    """x > y = x."""
    return validate_quandle([[x] * n for x in range(n)], name=f"T{n}")


def dihedral_quandle(n: int) -> FiniteQuandle:
    """x > y = 2y - x mod n."""
    return validate_quandle(
        [[(2 * y - x) % n for y in range(n)] for x in range(n)], name=f"R{n}"
    )


def load_quandle_table(path) -> FiniteQuandle:
    """Read an operation table: first line the order n >= 1 alone, then
    exactly n non-blank lines of n whitespace-separated entries in 0..n-1.
    Raises ValueError naming ``path`` on any other layout, and the
    QuandleAxiomError of ``validate_quandle``, with its witness, prefixed
    with ``path`` when the table fails an axiom."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.strip()]
    header, *rows = lines or [[]]  # an empty file fails the header check
    if len(header) != 1 or not header[0].isdecimal() or int(header[0]) < 1:
        raise ValueError(f"{path}: the first line must be the order alone, an integer >= 1")
    n = int(header[0])
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} table rows, found {len(rows)}")
    for i, row in enumerate(rows, 1):
        if len(row) != n:
            raise ValueError(f"{path}: table row {i} has {len(row)} entries, expected {n}")
        if not all(v.isdecimal() and int(v) < n for v in row):
            raise ValueError(f"{path}: table row {i} has an entry that is not an integer in 0..{n - 1}")
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        return validate_quandle(rows, name=stem)
    except QuandleAxiomError as exc:
        raise type(exc)(f"{path}: {exc}", witness=exc.witness) from None


_CHECK_EVERY = 4096  # enumerated seed assignments between deadline checks


@functools.lru_cache(maxsize=64)
def _alexander_unit(q: FiniteQuandle) -> Optional[int]:
    """u when ``q`` is the Alexander quandle x > y = u*x + (1-u)*y on Z/p
    with p prime, else None.  u is read off 0 > 1 = 1 - u and checked
    against the whole table, once per table: the result is cached."""
    p = q.order
    if p < 2 or any(p % f == 0 for f in range(2, int(p**0.5) + 1)):
        return None
    u = (1 - q.table[0][1]) % p
    if u == 0 or any(
        q.table[x][y] != (u * x + (1 - u) * y) % p for x in range(p) for y in range(p)
    ):
        return None
    return u


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over Z/p (p prime) of the rows, by elimination in place."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def count_colorings(
    d: GaussDiagram,
    q: FiniteQuandle,
    seeds: Optional[Iterable[int]] = None,
    result: Optional[WirtingerResult] = None,
    deadline: Optional[float] = None,
) -> int:
    """Number of quandle colorings of the strands.

    The seeds of a coloring sequence fix a coloring: each later entry takes
    the value its move gives, and the arrowhead relations not used as moves
    must hold.  For an Alexander quandle those relations are linear in the
    seed values, the sequence is walked once per seed to read their
    coefficients, and the count is p^(seeds - their rank);
    otherwise the |X|^seeds seed assignments are enumerated, checking the
    ``deadline`` (a ``time.perf_counter()`` value) every _CHECK_EVERY
    assignments and raising SearchTimeoutError past it.  The count does not
    depend on which generating seed set or sequence is used.
    """
    n = strand_table(d).n_strands
    if result is not None:
        seq = result.sequence
    elif seeds is not None:
        seq = apply_coloring_moves(d, seeds)
        if len(seq.entries) != n:
            raise ValueError("seed set does not color the whole diagram")
    else:
        seq = wirtinger_number(d).sequence

    steps, residual = sequence_relations(d, seq)
    seeds = seq.seeds

    u = _alexander_unit(q)
    if u is not None:
        p = q.order
        inv = pow(u, -1, p)
        coef = {1: (u, 1 - u), -1: (inv, 1 - inv)}
        walk = [(strand, src, tail, *coef[sign]) for strand, src, tail, sign in steps]
        check = [(strand, src, tail, *coef[sign]) for strand, src, tail, sign in residual]
        columns = []
        for s in seeds:
            v = [0] * n
            v[s] = 1
            for strand, src, tail, c, c1 in walk:
                v[strand] = (c * v[src] + c1 * v[tail]) % p
            columns.append(
                [(v[strand] - c * v[src] - c1 * v[tail]) % p for strand, src, tail, c, c1 in check]
            )
        return p ** (seq.k - _rank_mod([list(row) for row in zip(*columns)], p))

    count = 0
    for i, assign in enumerate(itertools.product(range(q.order), repeat=seq.k)):
        if i % _CHECK_EVERY == 0:
            check_deadline(deadline, f"during the quandle count ({i} assignments enumerated)")
        values = [-1] * n
        for s, v in zip(seeds, assign):
            values[s] = v
        for strand, src, tail, sign in steps:
            values[strand] = q.apply(values[src], values[tail], sign)
        if all(
            values[strand] == q.apply(values[src], values[tail], sign)
            for strand, src, tail, sign in residual
        ):
            count += 1
    return count
