"""Wirtinger presentation, Alexander matrix and the elementary-ideal bound.

The strand table is the Wirtinger presentation: a generator per strand, a
relation per head incidence, a_after = b^e a_before b^-e with b the tail
strand and e the chord sign.  Fox derivatives of that relation,
abelianized to Z[t, 1/t], give the Alexander matrix row
  column a_after: -1,  column a_before: t^e,  column b: 1 - t^e,
with coincident generators accumulating.  The elementary ideal E_k is
proper, which puts the bridge number above k, when some prime p and unit u
make every generator vanish at t = u over Z/p.  Only these degree-1 points
(p, t - u) are tried, for odd p up to ``prime_bound``, and no maximal ideal
(p, f) with deg f >= 2, so the bound is the largest nullity at those
points: at most 1 + max{k : E_k proper}, and at most omega.

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
minors is skipped.  Entries and minors are {exponent: coefficient} dicts, and
canonical minors coefficient tuples; ``alexander_matrix`` returns the dicts too.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, islice
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import check_deadline, require_knot
from .gauss import GaussDiagram, strand_table
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
    rows: tuple[tuple[dict, ...], ...]  # one row per relation, {exponent: coefficient} entries
    n_cols: int  # one column per generator, also when there is no row


def alexander_matrix(d: GaussDiagram) -> AlexanderMatrix:
    """The n x n Alexander matrix: a row per relation, a column per strand;
    the presentation on every strand as a seed, so no move is used."""
    n = strand_table(d).n_strands
    rows = _presentation(d, ColoringSequence(tuple(SequenceEntry(s, None) for s in range(n)), n))
    return AlexanderMatrix(tuple(rows), n)


_IDEAL = "during the elementary-ideal bound"  # the end of its timeout message


def _minor_determinants(
    rows: Sequence[Sequence[dict]], size: int, deadline: Optional[float] = None
) -> list[dict]:
    """All size x size minors of the matrix with these rows, by cofactor
    expansion memoized on the (rows, cols) index pair so shared subminors
    are computed once.  Raises SearchTimeoutError once
    ``time.perf_counter()`` passes ``deadline``, checked on entry and before
    each subminor of size two or more that is not in the memo."""
    check_deadline(deadline, _IDEAL)
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], dict] = {}

    def det(rs: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        if len(rs) == 1:
            return rows[rs[0]][cols[0]]
        key = (rs, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        check_deadline(deadline, _IDEAL)
        total: dict = {}
        rest = rs[1:]
        top = rows[rs[0]]
        for j, col in enumerate(cols):
            entry = top[col]
            if not entry:
                continue
            sub = det(rest, cols[:j] + cols[j + 1 :])
            sign = -1 if j % 2 else 1
            for e1, c1 in entry.items():
                c1 *= sign
                for e2, c2 in sub.items():
                    total[e1 + e2] = total.get(e1 + e2, 0) + c1 * c2
        total = {e: c for e, c in total.items() if c}
        memo[key] = total
        return total

    cols = range(len(rows[0]) if rows else 0)
    return [det(rs, cs) for rs in combinations(range(len(rows)), size) for cs in combinations(cols, size)]


def _canonical(g: dict) -> tuple[int, ...]:
    """The coefficients, lowest degree first, of the associate +-t^m g with
    a positive constant term; () for zero.  Associates get one tuple, and
    the shift keeps the roots u != 0 of g modulo any prime."""
    if not g:
        return ()
    out = [g.get(e, 0) for e in range(min(g), max(g) + 1)]
    return tuple(-c for c in out) if out[0] < 0 else tuple(out)


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


def _gcd_mod(gens: Sequence[Sequence[int]], p: int) -> list[int]:
    """A gcd over Z/p of the generators, coefficient sequences lowest degree
    first with a nonzero constant term (or empty for zero): every common
    root u != 0 mod p is one of its roots.  [] when all vanish mod p;
    length 1 (a nonzero constant) when they share no root."""
    a: list[int] = []
    for g in gens:
        b = [c % p for c in g]
        while b and not b[-1]:
            b.pop()
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


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) a mod b over Z, as coefficient lists
    lowest degree first with no zero leading coefficient; deg a >= deg b."""
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


def _resultant(f: Sequence[int], g: Sequence[int]) -> int:
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


def _resultant_filter(gens: Sequence[Sequence[int]]) -> int:
    """An integer N divisible by every prime over which the generators
    (as for ``_gcd_mod``) share a root u != 0; 0 when no such N is at hand.

    N is Res(f, g) of the first two nonzero generators, or gcd(f, g) when
    both are constants (their resultant would be 1).  Res(f, g) = A f + B g
    with A, B in Z[t], so a common root u mod p gives p | N.  N = 0 when f
    and g share a factor over Q, or when there are fewer than two."""
    pair = list(islice((g for g in gens if g), 2))
    if len(pair) < 2:
        return 0
    f, g = pair
    if len(f) == len(g) == 1:
        return gcd(f[0], g[0])
    return _resultant(f, g)


class IdealBoundResult(NamedTuple):
    bound: int
    witness: Optional[tuple[int, int, int]]  # (prime, unit, nullity) or None


def _presentation(d: GaussDiagram, seq: ColoringSequence) -> list[tuple[dict, ...]]:
    """The Alexander module on the seeds of a coloring sequence: a column
    per seed, the Fox row (form(before) >^e form(b)) - form(after) per
    relation that no move used, with x >^e y = t^e x + (1 - t^e) y.  A form
    maps ex * k + j to the nonzero coefficient of t^ex in seed j's column,
    for the k seeds, so t^e shifts every key by e * k."""
    k = seq.k
    moves, unused = sequence_relations(d, seq)
    forms: list = [None] * strand_table(d).n_strands
    for j, s in enumerate(seq.seeds):
        forms[s] = {j: 1}

    def act(x: dict, y: dict, e: int, z: dict) -> dict:  # y + t^e (x - y) - z
        if x == y and not z:
            return x
        out = dict(y)
        for form, sign, shift in ((x, 1, e * k), (y, -1, e * k), (z, -1, 0)):
            for key, c in form.items():
                out[key + shift] = out.get(key + shift, 0) + sign * c
        return {key: c for key, c in out.items() if c}

    for strand, src, tail, e in moves:
        forms[strand] = act(forms[src], forms[tail], e, {})
    rows = []
    for after, before, tail, e in unused:
        row: tuple[dict, ...] = tuple({} for _ in range(k))
        for key, c in act(forms[before], forms[tail], e, forms[after]).items():
            row[key % k][key // k] = c
        rows.append(row)
    return rows


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
    rows = _presentation(d, seq)
    # column 0 is minus the sum of the others, so it adds no rank
    minors = _minor_determinants([row[1:] for row in rows], width - 1, deadline)
    minors = list(dict.fromkeys(map(_canonical, minors)))
    if (1,) in minors:  # a unit vanishes nowhere
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
            # u^(p-1) = 1 mod p, so negative exponents reduce cleanly
            at = [
                [sum(c * pow(u, e % (p - 1), p) for e, c in g.items()) % p for g in row]
                for row in rows
            ]
            nullity = width - _rank_mod(at, p)
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
    """Bridge-number lower bound: the largest nullity at t = u over Z/p,
    for odd primes p <= ``prime_bound`` and units u, of the presentation
    on the seeds of the Wirtinger search ``result``, or else of
    ``reduced_seed_set(d)`` (the nullity at each (p, u) is the module's, so
    only the cost differs); 1, with no witness, when no nullity reaches 2.
    No point (p, f) with deg f >= 2 is tried, so the bound is at most
    1 + max{k : E_k proper}, and at most omega.  The witness is the first
    (p, u) of largest nullity.  At u = 1 a knot's nullity is 1, as its
    relations chain its strands into one cycle, and p = 2 has no unit to
    try.  Raises SearchTimeoutError once ``time.perf_counter()`` passes
    ``deadline``.  Knot diagrams only."""
    require_knot(d, "elementary-ideal bound")
    check_deadline(deadline, _IDEAL)
    seq = result.sequence if result else apply_coloring_moves(d, reduced_seed_set(d, deadline))
    return sequence_bound(d, seq, prime_bound=prime_bound, deadline=deadline)
