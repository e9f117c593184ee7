"""Wirtinger presentation, Alexander matrix and the elementary-ideal bound.

The strand table is the Wirtinger presentation: a generator per strand, a
relation per head incidence, a_after = b^e a_before b^-e with b the tail
strand and e the chord sign.  Fox derivatives of that relation,
abelianized to Z[t, 1/t], give the Alexander matrix row
  column a_after: -1,  column a_before: t^e,  column b: 1 - t^e,
with coincident generators accumulating.  The elementary ideal E_k is
proper when some prime p and unit u make every generator vanish at t = u
over Z/p, which puts the bridge number above k.

The bound ranks the presentation on a seed set that colors every strand
(``_presentation``): the Wirtinger search's, else
``search.reduced_seed_set``.  Each coloring move solves one relation for
the strand it colors, whose coefficient is a unit (-1 or t^e), so every
strand is a form in the seeds, and each relation no move used is a row.
It presents the module the full matrix does, so E_k vanishes at (p, u)
exactly when its rank at t = u over Z/p is below its width w minus k: the
bound is the largest nullity, at most w (omega on the search's seeds),
whatever the seeds, and the minors cost about 2^w.  Nullity 2 needs every
(w - 1)-minor to vanish.  Every form's coefficients sum to 1, so every row
sums to zero and the first column adds no rank: the w maximal minors
without it vanish exactly where all w^2 (w - 1)-minors do.  For u != 0
their common roots mod p are the roots of their gcd over Z/p, found by
Horner's rule.  A common root mod p of two minors f and g makes p divide
Res(f, g) = A f + B g (A, B in Z[t]), so once one prime shows no common
root, every prime not dividing the resultant of the first two nonzero
minors is skipped.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, islice
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import check_deadline, require_knot
from .gauss import GaussDiagram, strand_table
from .laurent import ONE, ZERO, LaurentPolynomial
from .quandle import _rank_mod
from .search import (
    ColoringSequence,
    SequenceEntry,
    WirtingerResult,
    apply_coloring_moves,
    reduced_seed_set,
    sequence_relations,
)


class AlexanderMatrix(NamedTuple):
    rows: tuple[tuple[LaurentPolynomial, ...], ...]  # one row per relation
    n_cols: int  # one column per generator, also when there is no row

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_sums_at_one(self) -> list[int]:
        return [sum(p.evaluate_unit(1) for p in row) for row in self.rows]


def alexander_matrix(d: GaussDiagram) -> AlexanderMatrix:
    """The n x n Alexander matrix: a row per relation, a column per strand;
    the presentation on every strand as a seed, so no move is used."""
    entries = tuple(SequenceEntry(s, None) for s in range(strand_table(d).n_strands))
    return _presentation(d, ColoringSequence(entries, len(entries)))


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


def _presentation(d: GaussDiagram, seq: ColoringSequence) -> AlexanderMatrix:
    """The Alexander module on the seeds of a coloring sequence: a column
    per seed, the Fox row (form(before) >^e form(b)) - form(after) per
    relation that no move used, with x >^e y = t^e x + (1 - t^e) y.  A form
    maps (seed, exponent) to a nonzero coefficient."""
    moves, unused = sequence_relations(d, seq)
    forms: list = [None] * strand_table(d).n_strands
    for j, s in enumerate(seq.seeds):
        forms[s] = {(j, 0): 1}

    def act(x: dict, y: dict, e: int, z: dict) -> dict:  # y + t^e (x - y) - z
        if x == y and not z:
            return x
        out = dict(y)
        for form, sign, shift in ((x, 1, e), (y, -1, e), (z, -1, 0)):
            for (j, ex), c in form.items():
                out[j, ex + shift] = out.get((j, ex + shift), 0) + sign * c
        return {key: c for key, c in out.items() if c}

    for strand, src, tail, e in moves:
        forms[strand] = act(forms[src], forms[tail], e, {})
    rows = []
    for after, before, tail, e in unused:
        row: dict = {}
        for (j, ex), c in act(forms[before], forms[tail], e, forms[after]).items():
            row.setdefault(j, {})[ex] = c
        rows.append(tuple(LaurentPolynomial(row[j]) if j in row else ZERO for j in range(seq.k)))
    return AlexanderMatrix(tuple(rows), seq.k)


def sequence_bound(
    d: GaussDiagram,
    seq: ColoringSequence,
    *,
    prime_bound: int = 97,
    deadline: Optional[float] = None,
) -> IdealBoundResult:
    """``ideal_lower_bound`` of the knot ``d`` on the presentation of a
    coloring sequence that colors every strand, whose nullity never exceeds
    its seed count; the scan stops once the nullity reaches it."""
    width = seq.k
    if width < 2:
        return IdealBoundResult(1, None)
    pres = _presentation(d, seq)
    # column 0 is minus the sum of the others, so it adds no rank
    rest = AlexanderMatrix(tuple(row[1:] for row in pres.rows), width - 1)
    minors = _minor_determinants(rest, width - 1, deadline)
    minors = list(dict.fromkeys(m.unit_canonical() for m in minors))
    if ONE in minors:  # a unit vanishes nowhere
        return IdealBoundResult(1, None)
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
            rows = [[g.evaluate_mod(p, u) for g in row] for row in pres.rows]
            nullity = width - _rank_mod(rows, p)
            if best is None or nullity > best[2]:
                best = (p, u, nullity)
                if nullity == width:
                    return IdealBoundResult(width, best)
    return IdealBoundResult(1 if best is None else best[2], best)


def ideal_lower_bound(
    d: GaussDiagram,
    *,
    prime_bound: int = 97,
    deadline: Optional[float] = None,
    result: Optional[WirtingerResult] = None,
) -> IdealBoundResult:
    """Bridge-number lower bound 1 + max{k : E_k proper}: the largest
    nullity at t = u over Z/p, for primes p <= ``prime_bound`` and units u,
    of the presentation on the seeds of the Wirtinger search ``result``, or
    else of ``reduced_seed_set(d)`` (the nullity at each (p, u) is the
    module's, so only the cost differs); 1, with no witness, when no
    nullity reaches 2.  The witness is the first (p, u) of largest nullity.
    At u = 1 a knot's nullity is 1, as its relations chain its strands into
    one cycle, and p = 2 has no unit to try.  Raises SearchTimeoutError
    once ``time.perf_counter()`` passes ``deadline``.  Knot diagrams only."""
    require_knot(d, "elementary-ideal bound")
    check_deadline(deadline, _IDEAL)
    seq = result.sequence if result else apply_coloring_moves(d, reduced_seed_set(d, deadline))
    return sequence_bound(d, seq, prime_bound=prime_bound, deadline=deadline)
