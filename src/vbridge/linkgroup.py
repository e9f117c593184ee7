"""Wirtinger presentation, Alexander matrix and the elementary-ideal bound.

The strand table is the Wirtinger presentation: a generator per strand, a
relation per head incidence, a_after = b^e a_before b^-e with b the tail
strand and e the chord sign.  Fox derivatives of that relation,
abelianized to Z[t, 1/t], give the Alexander matrix row (``_fox_rows``)
  column a_after: -1,  column a_before: t^e,  column b: 1 - t^e,
with coincident generators accumulating.  The elementary ideal E_k is
proper when some prime p and unit u make every generator vanish at t = u
over Z/p, which puts the bridge number above k.

Every row has a unit -1 in its ``after`` column, so the bound first
eliminates unit pivots +-t^m (``alexander_core``): the elementary ideals
are invariants of the module the matrix presents, which the elimination
keeps, and the pivots stay units at every u != 0 mod p, so the core's
nullity at (p, u) is the full matrix's.  On a w-wide core, E_k vanishes
at (p, u) exactly when every (w - k)-minor does, that is when the core at
t = u has rank below w - k over Z/p.  So one rank per (p, u) gives every
k at once: the bound is the largest nullity.  The core is eliminated on
the sparse Fox rows of plain integers, and only its few entries become
``LaurentPolynomial``; the dense n x n matrix (``alexander_matrix``) is
filled from the same rows, only for ``vbridge alexander``'s output.

Nullity 2 or more needs every (w - 1)-minor to vanish, and only those
(p, u) are ranked.  Every Fox row sums to zero, and elimination keeps
that (row' . 1 = row . 1 - (f / pivot) prow . 1), so the core's first
column is minus the sum of the others at every t and dropping it keeps
the rank: the w maximal minors of the core without its first column
vanish exactly where all w^2 (w - 1)-minors of the core do, and they are
the minors taken.  For u != 0 the common roots of the minors mod p are
exactly the roots of their gcd over Z/p, so u comes from Horner's rule on
that gcd.  A common root mod p of two minors f and g makes p divide their
resultant, since Res(f, g) = A f + B g with A, B in Z[t]; so once one
prime shows no common root, the integer resultant of the first two
nonzero minors (by the subresultant remainder sequence) rules out every
prime that does not divide it.

A knot that one seed strand saturates skips the core altogether.  Each
coloring move solves one relation for a strand whose coefficient is a
unit (-1 at ``after``, t^e at ``before``), so the seed's generator alone
generates the module: E_k = (1) for every k >= 1, and the bound is 1.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, islice
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import NotAKnotError, check_deadline
from .gauss import GaussDiagram, strand_table
from .laurent import ZERO, LaurentPolynomial
from .quandle import _rank_mod
from .search import one_strand_saturates


class AlexanderMatrix(NamedTuple):
    rows: tuple[tuple[LaurentPolynomial, ...], ...]  # one row per relation
    n_cols: int  # one column per generator, also when there is no row

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_sums_at_one(self) -> list[int]:
        return [sum(p.evaluate_unit(1) for p in row) for row in self.rows]


def _fox_rows(d: GaussDiagram) -> list[dict[int, dict[int, int]]]:
    """The Alexander matrix rows, one per head incidence in head order, as
    sparse rows: strand -> entry {exponent: coefficient} of plain ints."""
    rows = []
    for i in strand_table(d).incidences:
        row: dict[int, dict[int, int]] = {}
        _accumulate(row, i.tail_strand, ((0, 1), (i.sign, -1)))  # 1 - t^e
        _accumulate(row, i.before, ((i.sign, 1),))  # t^e
        _accumulate(row, i.after, ((0, -1),))
        rows.append(row)
    return rows


def _dense(rows: list[dict[int, dict[int, int]]], cols: Sequence[int]) -> AlexanderMatrix:
    """The sparse rows restricted to ``cols``, in that order, as a matrix."""
    return AlexanderMatrix(
        tuple(
            tuple(LaurentPolynomial(row[j]) if j in row else ZERO for j in cols)
            for row in rows
        ),
        len(cols),
    )


def alexander_matrix(d: GaussDiagram) -> AlexanderMatrix:
    """The n x n Alexander matrix: a row per relation, a column per strand."""
    return _dense(_fox_rows(d), range(strand_table(d).n_strands))


def alexander_core(d: GaussDiagram) -> AlexanderMatrix:
    """Eliminate unit pivots +-t^m over Z[t, 1/t] until none is left.

    Works on the sparse Fox rows, never the dense matrix.  Each pivot's row
    clears the rest of its column, then the pivot's row and column go.  The
    result presents the same module, so for k below its width E_k is the
    ideal of its (width - k)-minors, and E_k = (1) above.  Pivots are
    chosen by least fill-in (Markowitz), ties by position; the column
    counts follow every fill-in and cancellation.
    """
    rows = _fox_rows(d)
    counts = dict.fromkeys(range(strand_table(d).n_strands), 0)
    for row in rows:
        for j in row:
            counts[j] += 1
    while (pivot := _unit_pivot(rows, counts)) is not None:
        r, c = pivot
        prow = rows.pop(r)
        for j in prow:
            counts[j] -= 1
        [(m, sign)] = prow.pop(c).items()
        for row in rows:
            f = row.pop(c, None)
            if f is None:
                continue
            # row += f * (-1 / pivot) * prow, with -1 / pivot = -sign t^-m
            for j, q in prow.items():
                had = j in row
                terms = [
                    (e1 + e2 - m, -sign * c1 * c2) for e1, c1 in f.items() for e2, c2 in q.items()
                ]
                _accumulate(row, j, terms)
                counts[j] += (j in row) - had
        del counts[c]
    return _dense(rows, sorted(counts))


def _accumulate(
    row: dict[int, dict[int, int]], j: int, terms: Iterable[tuple[int, int]]
) -> None:
    """Add the terms (exponent, nonzero coefficient) to row[j], dropping
    zero coefficients and a zero entry."""
    entry = row.setdefault(j, {})
    for e, c in terms:
        v = entry.get(e, 0) + c
        if v:
            entry[e] = v
        else:
            del entry[e]
    if not entry:
        del row[j]


def _unit_pivot(
    rows: list[dict[int, dict[int, int]]], counts: dict[int, int]
) -> Optional[tuple[int, int]]:
    """Position (row, column) of the unit entry with the least key
    ((row length - 1) * (column count - 1), row, column), or None."""
    best = None
    for i, row in enumerate(rows):
        for j, entry in row.items():
            if len(entry) == 1 and abs(next(iter(entry.values()))) == 1:
                key = ((len(row) - 1) * (counts[j] - 1), i, j)
                if best is None or key < best:
                    best = key
        if best is not None and best[0] == 0:
            break  # a later row cannot beat cost 0
    return None if best is None else best[1:]


_IDEAL = "during the elementary-ideal bound"  # the end of its timeout message


def _minor_determinants(
    a: AlexanderMatrix, size: int, deadline: Optional[float] = None
) -> list[LaurentPolynomial]:
    """All size x size minors, by cofactor expansion memoized on the
    (rows, cols) index pair so shared subminors are computed once.
    Raises SearchTimeoutError once ``time.perf_counter()`` passes
    ``deadline``, checked on entry and before each subminor of size two or
    more that is not in the memo."""
    check_deadline(deadline, _IDEAL)
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPolynomial] = {}

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> LaurentPolynomial:
        if len(rows) == 1:
            return a.rows[rows[0]][cols[0]]
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        check_deadline(deadline, _IDEAL)
        total = LaurentPolynomial()
        rest = rows[1:]
        for j, col in enumerate(cols):
            entry = a.rows[rows[0]][col]
            if entry.is_zero:
                continue
            sub = det(rest, cols[:j] + cols[j + 1 :])
            term = entry * sub
            total = total + term if j % 2 == 0 else total - term
        memo[key] = total
        return total

    out = []
    for rows in combinations(range(a.n_rows), size):
        for cols in combinations(range(a.n_cols), size):
            out.append(det(rows, cols))
    return out


@cache  # every ideal bound scans the same primes
def _primes_upto(bound: int) -> tuple[int, ...]:
    sieve = [True] * (bound + 1)
    primes = []
    for p in range(2, bound + 1):
        if sieve[p]:
            primes.append(p)
            for q in range(p * p, bound + 1, p):
                sieve[q] = False
    return tuple(primes)


def _integer_poly(g: LaurentPolynomial) -> list[int]:
    """Integer coefficients of g times the power of t that gives it a
    nonzero constant term, lowest degree first; [] for zero.  The shift
    keeps the roots u != 0 of g modulo any prime."""
    span = g.degree_range()
    if span is None:
        return []
    out = [0] * (span[1] - span[0] + 1)
    for e, c in g.items():
        out[e - span[0]] = c
    return out


def _poly_mod(g: LaurentPolynomial, p: int) -> list[int]:
    """``_integer_poly(g)`` over Z/p with no zero leading coefficient;
    [] when g vanishes mod p."""
    out = [c % p for c in _integer_poly(g)]
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_mod(gens: Sequence[LaurentPolynomial], p: int) -> list[int]:
    """A gcd over Z/p of the generators as ``_poly_mod`` polynomials: every
    common root u != 0 mod p is one of its roots.  [] when all vanish mod p;
    length 1 (a nonzero constant) when they share no root."""
    a: list[int] = []
    for g in gens:
        b = _poly_mod(g, p)
        while b:  # Euclid: a, b = b, a mod b
            inv = pow(b[-1], p - 2, p)
            while len(a) >= len(b):
                f = a[-1] * inv % p
                shift = len(a) - len(b)
                for i, c in enumerate(b):
                    a[shift + i] = (a[shift + i] - f * c) % p
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        if len(a) == 1:
            break
    return a


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) a mod b over Z, as ``_integer_poly``
    lists with no zero leading coefficient; deg a >= deg b."""
    lead, n = b[-1], len(b)
    unused = len(a) - n + 1  # powers of lc(b) left to multiply in
    while len(a) >= n:
        f = a[-1]
        a = [c * lead for c in a[:-1]]
        shift = len(a) - n + 1
        for i in range(n - 1):
            a[shift + i] -= f * b[i]
        unused -= 1
        while a and not a[-1]:
            a.pop()
    scale = lead**unused
    return [c * scale for c in a]


def _resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) of two integer polynomials, lowest degree first with
    nonzero leading coefficients, not both constant: the subresultant
    polynomial remainder sequence, whose every division is exact, in
    O(deg f * deg g) operations on integers."""
    a, b, sign = f, g, 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    lead = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        div = lead * h**delta
        a, b = b, [c // div for c in r]
        lead = a[-1]
        if delta:
            h = lead**delta // h ** (delta - 1)
    deg = len(a) - 1
    return sign * b[-1] ** deg // h ** (deg - 1)


def _resultant_filter(gens: Sequence[LaurentPolynomial]) -> int:
    """An integer N divisible by every prime over which the generators
    share a root u != 0; 0 when no such N is at hand.

    N is Res(f, g) of the first two nonzero generators as ``_integer_poly``
    polynomials, or gcd(f, g) when both are constants (their resultant
    would be 1).  Res(f, g) = A f + B g with A, B in Z[t], so a common root
    u mod p gives p | N.  N = 0 when f and g share a factor over Q, or when
    there are fewer than two."""
    pair = [_integer_poly(h) for h in islice((h for h in gens if not h.is_zero), 2)]
    if len(pair) < 2:
        return 0
    f, g = pair
    if len(f) == len(g) == 1:
        return gcd(f[0], g[0])
    return _resultant(f, g)


class IdealBoundResult(NamedTuple):
    bound: int
    witness: Optional[tuple[int, int, int]]  # (prime, unit, nullity) or None


def ideal_lower_bound(
    d: GaussDiagram,
    k_max: Optional[int] = None,
    prime_bound: int = 97,
    deadline: Optional[float] = None,
) -> IdealBoundResult:
    """Bridge-number lower bound 1 + max{k <= k_max : E_k proper}: the
    largest nullity of ``alexander_core`` at t = u over Z/p, for primes
    p <= ``prime_bound`` and units u, capped at k_max + 1 and at the strand
    count; 1, with no witness, when no nullity reaches 2.

    Only the common roots of the maximal minors of the core without its
    first column are ranked.  At u = 1 the relations chain the strands into
    one cycle, so a knot's nullity is 1 there and p = 2 has no unit to try.
    The witness is the first (p, u) of largest nullity; the scan stops once
    the nullity reaches the cap.
    A core at most one wide, or a knot that one strand saturates (which
    builds no core), gives 1.  Raises SearchTimeoutError once
    ``time.perf_counter()`` passes ``deadline``.  Knot diagrams only."""
    if d.n_components != 1:
        raise NotAKnotError("elementary-ideal bound is defined for knot diagrams")
    check_deadline(deadline, _IDEAL)
    n = strand_table(d).n_strands
    cap = n if k_max is None else min(k_max + 1, n)
    core = None if cap < 2 or one_strand_saturates(d) else alexander_core(d)
    width = 0 if core is None else core.n_cols
    cap = min(cap, width)
    if cap < 2:
        return IdealBoundResult(1, None)
    # column 0 is minus the sum of the others, so it adds no rank
    rest = AlexanderMatrix(tuple(row[1:] for row in core.rows), width - 1)
    minors = _minor_determinants(rest, width - 1, deadline)
    minors = list(dict.fromkeys(m.unit_canonical() for m in minors))
    best = None
    res = None  # N, once a prime has shown no common root
    for p in _primes_upto(prime_bound)[1:]:
        if res and res % p:
            continue
        check_deadline(deadline, _IDEAL)
        h = _gcd_mod(minors, p)  # [] when every minor vanishes mod p
        if len(h) == 1:
            if res is None:
                res = _resultant_filter(minors)
            continue
        for u in range(2, p):
            v = 0
            for c in reversed(h):
                v = (v * u + c) % p
            if v:
                continue
            rows = [[g.evaluate_mod(p, u) for g in row] for row in core.rows]
            nullity = width - _rank_mod(rows, p)
            if best is None or nullity > best[2]:
                best = (p, u, nullity)
                if nullity >= cap:
                    return IdealBoundResult(cap, best)
    return IdealBoundResult(1 if best is None else best[2], best)
