"""Shared test helpers: independent oracles and random diagram generators.

``LaurentPolynomial``, with ``ZERO``, ``ONE``, ``T`` and ``T_INV``, is the
former library module ``vbridge.laurent``, kept verbatim as the arithmetic
of the Laurent oracles below.  The library's bounds and ``alexander_matrix``
hold {exponent: coefficient} dicts, which ``laurent_matrix`` wraps to compare
with those oracles and ``row_sums_at_one`` sums at t = 1.

The oracles deliberately avoid the library's search kernels: the Wirtinger
oracle does a breadth-first walk over colored-set states for every seed
subset, the coloring oracle enumerates all strand assignments, and the
shuffled closure fires coloring moves in a reshuffled arrowhead order to
check that saturation does not depend on it.  The numpy seed-subset search
is the former library backend, kept verbatim to check that the bitmask
search reproduces its witnesses and work counters.

The core bound is the former library ideal bound, kept verbatim with its
Alexander core (Markowitz elimination of unit pivots on the sparse Fox
rows of ``_fox_rows``, ``alexander_core`` and ``_sparse_unit_pivot``, the
latter renamed from ``_unit_pivot``) and its one-strand shortcut
(``one_strand_saturates``), to check that ranking the presentation on the
search's seeds, or on any seed set that colors every strand, gives the
same bound and witness.  The minor-scan ideal
bound, with its per-k elementary-ideal generators, properness
certificates and ``IdealCertificate`` records, is the bound before that,
kept verbatim (its bad-index error now a plain ``ValueError``) to check
that the core's largest nullity gives the same bound.  The full-matrix
ideal bound is the bound before the Alexander core, kept to check that the
minor scan on the core gives the same bound, witnesses and nontriviality
flags.  The dense Alexander core is the elimination on the full
``LaurentPolynomial`` matrix, kept to check that the core built from
sparse integer rows is the same entry for entry.

The token-by-token tokenizer, the two-pass diagram builder, the
position-walking strand table and the pairwise Gaussian parity are the
former library code, kept verbatim to check that the one-pass
replacements build equal diagrams, tables and parities and raise the same
errors with the same messages.  The ``endpoint_`` parser, strand table,
bridge count, R1 normalization, Gaussian parity and parity projection are
the former library code, which built an ``Endpoint`` per token and a
``Chord`` per label and read those, kept verbatim to check that the
diagram holding its tokens gives the same records, tables, counts and
errors.  Every diagram builder here returns an ``EndpointDiagram``, the
``(components, chords)`` pair the library's ``GaussDiagram`` held before
it held tokens, which ``assert_same_diagram`` compares with a diagram's
tokens, sign map and views.  The Sylvester-determinant resultant
checks the subresultant sequence.  The gcd-scan properness certificate and
the token round-trip parity projection are the former library code, kept
verbatim to check that the resultant-filtered root scan finds the same
witnesses and that the projection built from kept tokens is the same
diagram.  The Alexander matrix built with ``LaurentPolynomial`` arithmetic
is the former library builder, reading each head incidence where it read
that incidence's ``Relation`` copy (whose ``tail`` is ``tail_strand``),
kept to check that the matrix built as the presentation with every strand
a seed is the same.
The Laurent sequence bound is the former library ``sequence_bound``, kept
verbatim with its ``LaurentPolynomial`` presentation and minors
(``laurent_presentation``, ``laurent_minor_determinants``), to check that
the bound on plain integer polynomials gives the same bound and witness;
``laurent_ideal_lower_bound`` and ``laurent_parity_lower_bound`` are the
former bounds on it, the latter running the local search on the projection
even when the search's seeds project to one strand.  ``_gcd_mod`` and
``_resultant_filter`` hand ``LaurentPolynomial`` generators to the
library's coefficient-tuple versions through ``integer_poly``, the former
library ``_integer_poly``.
The simulating welded certificate is the former library generator, which
carried out every move it emitted on a token list under three asserts,
kept verbatim to check that the planned certificates are the same.  The
token-scan replay is the former library replay, which found an ``r1``
chord's tokens by scanning every token and rebuilt the list, kept verbatim
to check that finding them by value and deleting them in place gives the
same verdicts.
The head-order saturation is the former library ``_saturate_batch``, which
passed over the arrowheads in head order only, kept verbatim to check that
sweeps alternating with reverse head order reach the same closure.  The
linear-form Alexander count is the former library walk, which carried
each strand's value as a k-long linear form in the seed values, kept to
check that walking the sequence once per seed gives the same counts.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
import re
import time
from collections import deque
from fractions import Fraction
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from vbridge.batch import CSV_COLUMNS, ResultRecord
from vbridge.errors import (
    EmptyInputError,
    GaussSyntaxError,
    NotAKnotError,
    NotOneOverbridgeError,
    SignMismatchError,
    UnbalancedChordError,
    check_deadline,
    require_knot,
)
from vbridge.gauss import (
    HEAD,
    TAIL,
    Chord,
    Endpoint,
    GaussDiagram,
    HeadIncidence,
    Strand,
    StrandTable,
    _new,
    component_tokens,
    from_tokens,
    parse_gauss_code,
    strand_table,
    to_gauss_code,
)
from vbridge.linkgroup import (
    _IDEAL,
    AlexanderMatrix,
    IdealBoundResult,
    _primes_upto,
)
from vbridge.linkgroup import _gcd_mod as _coefficient_gcd_mod
from vbridge.linkgroup import _resultant_filter as _coefficient_resultant_filter
from vbridge.parity import _projected_seeds, gaussian_parity, parity_projection
from vbridge.quandle import FiniteQuandle, _alexander_unit, _rank_mod
from vbridge.search import (
    ColoringSequence,
    SequenceEntry,
    VerifyResult,
    WirtingerResult,
    _moves,
    _saturate_batch,
    apply_coloring_moves,
    reduced_seed_set,
    sequence_relations,
)
from vbridge.welded import UnknottingCertificate, WeldedMove, is_one_overbridge


class LaurentPolynomial:
    """Polynomial in t and 1/t over the integers.

    Immutable; only nonzero coefficients are stored, keyed by exponent.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]], None] = None):
        acc: dict[int, int] = {}
        if coeffs is not None:
            # dict first: the exact type check is far cheaper than the ABC one
            items = coeffs.items() if isinstance(coeffs, (dict, Mapping)) else coeffs
            for e, c in items:
                acc[int(e)] = acc.get(int(e), 0) + int(c)
        object.__setattr__(self, "_coeffs", {e: c for e, c in acc.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPolynomial":
        return cls({exp: coeff})

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, descending by exponent."""
        return sorted(self._coeffs.items(), key=lambda ec: -ec[0])

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_unit(self) -> bool:
        """True for the units of Z[t, 1/t], the monomials ±t^m."""
        return len(self._coeffs) == 1 and abs(next(iter(self._coeffs.values()))) == 1

    def degree_range(self) -> tuple[int, int] | None:
        """(min exponent, max exponent), or None for the zero polynomial."""
        if not self._coeffs:
            return None
        exps = self._coeffs.keys()
        return min(exps), max(exps)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def evaluate_unit(self, v: int) -> int:
        """Exact value at t = v for v in {1, -1} (the only integer units)."""
        if v not in (1, -1):
            raise ValueError("evaluate_unit accepts only 1 or -1")
        return sum(c * (v ** (e & 1)) if v == -1 else c for e, c in self._coeffs.items())

    def evaluate_mod(self, p: int, u: int) -> int:
        """Value at t = u in Z/p for a prime p and a unit u (1 <= u < p)."""
        if not 1 <= u < p:
            raise ValueError("u must satisfy 1 <= u < p")
        total = 0
        for e, c in self._coeffs.items():
            # u^(p-1) = 1 mod p, so negative exponents reduce cleanly
            total += c * pow(u, e % (p - 1), p)
        return total % p

    def unit_canonical(self) -> "LaurentPolynomial":
        """Representative of the class {±t^m · self}: lowest exponent 0,
        lowest-degree coefficient positive."""
        if not self._coeffs:
            return LaurentPolynomial()
        lo = min(self._coeffs)
        shifted = {e - lo: c for e, c in self._coeffs.items()}
        if shifted[0] < 0:
            shifted = {e: -c for e, c in shifted.items()}
        return LaurentPolynomial(shifted)

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.items()):
            text = f"{c}*t^{e}"
            if i and c > 0:
                text = "+" + text
            parts.append(text)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPolynomial({dict(sorted(self._coeffs.items()))!r})"


def _coerce(value):
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial({0: value})
    return NotImplemented


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({0: 1})
T = LaurentPolynomial({1: 1})
T_INV = LaurentPolynomial({-1: 1})


_NP_CHECK_EVERY = 256
_ORACLE_TOKEN = re.compile(r"([OU])([0-9]+)([+-])")


def oracle_tokenize(text: str) -> list[list[tuple[str, int, int]]]:
    """Per-component (kind, label, sign) tokens, matched one token at a
    time."""
    stripped = re.sub(r"\s+", "", text or "")
    if not stripped:
        raise EmptyInputError("no components in Gauss code")
    out = []
    for ci, comp_text in enumerate(stripped.split("|")):
        if comp_text == ".":
            out.append([])
            continue
        if not comp_text:
            raise GaussSyntaxError(f"component {ci} is empty; use '.' for a chordless circle")
        tokens = []
        pos = 0
        while pos < len(comp_text):
            m = _ORACLE_TOKEN.match(comp_text, pos)
            if m is None:
                raise GaussSyntaxError(f"bad token at {comp_text[pos:pos + 8]!r} in component {ci}")
            kind, label_text, sign_text = m.groups()
            tokens.append((kind, int(label_text), 1 if sign_text == "+" else -1))
            pos = m.end()
        out.append(tokens)
    return out


class EndpointDiagram(NamedTuple):
    """A diagram as the library held it before it held its tokens: cyclic
    endpoint sequences, and the chords ascending by id.  The endpoint
    oracles build and read it."""

    components: tuple[tuple[Endpoint, ...], ...]
    chords: tuple[Chord, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    def chord(self, chord_id: int) -> Chord:
        return next(c for c in self.chords if c.id == chord_id)


def assert_same_diagram(d: GaussDiagram, expected: EndpointDiagram) -> None:
    """``d`` holds the tokens of ``expected`` and its signs, in the code
    order of the arrowtails, and its views are the records of
    ``expected``, record types included."""
    sign = {c.id: c.sign for c in expected.chords}
    tokens = tuple(tuple((e.kind, e.chord_id, sign[e.chord_id]) for e in comp) for comp in expected.components)
    tails = [e.chord_id for comp in expected.components for e in comp if e.kind == TAIL]
    assert d.tokens == tokens and list(d.signs.items()) == [(label, sign[label]) for label in tails]
    assert_same_records(d.components, expected.components)
    assert_same_records(d.chords, expected.chords)
    assert all(d.chord(c.id) is c for c in d.chords)


def oracle_from_tokens(component_tokens) -> EndpointDiagram:
    """The diagram of per-component tokens: endpoints first, then every
    label checked in a second pass by sorting the kinds of its ends."""
    if not component_tokens:
        raise EmptyInputError("no components in Gauss code")
    components = tuple(
        tuple(Endpoint(kind, label, ci, pos) for pos, (kind, label, _) in enumerate(tokens))
        for ci, tokens in enumerate(component_tokens)
    )
    occurrences: dict[int, list[tuple[Endpoint, int]]] = {}
    for comp, tokens in zip(components, component_tokens):
        for e, (_, label, sign) in zip(comp, tokens):
            if label < 1:
                raise GaussSyntaxError(f"chord label must be positive, got {label}")
            occurrences.setdefault(label, []).append((e, sign))

    chords = []
    for label, occ in sorted(occurrences.items()):
        if sorted(e.kind for e, _ in occ) != [TAIL, HEAD]:
            raise UnbalancedChordError(
                f"chord {label} must appear exactly once as O and once as U"
            )
        (first, sign), (second, other_sign) = occ
        if sign != other_sign:
            raise SignMismatchError(f"chord {label} carries both signs")
        tail, head = (first, second) if first.kind == TAIL else (second, first)
        chords.append(Chord(label, sign, tail, head))
    return EndpointDiagram(components, tuple(chords))


def oracle_parse(text: str) -> EndpointDiagram:
    return oracle_from_tokens(oracle_tokenize(text))


def oracle_strand_table(d: EndpointDiagram) -> StrandTable:
    """Strand table from a walk over every position of every strand."""
    strands: list[Strand] = []
    pos_to_strand: list[list[int]] = []
    comp_base: list[int] = []
    comp_heads: list[list[int]] = []

    for ci, comp in enumerate(d.components):
        length = len(comp)
        head_positions = [p for p in range(length) if comp[p].kind == HEAD]
        comp_base.append(len(strands))
        comp_heads.append(head_positions)
        mapping = [-1] * length
        if not head_positions:
            sid = len(strands)
            tails = tuple(e.chord_id for e in comp)
            strands.append(Strand(sid, ci, tails))
            for p in range(length):
                mapping[p] = sid
        else:
            m = len(head_positions)
            for j, hp in enumerate(head_positions):
                prev = head_positions[(j - 1) % m]
                start = (prev + 1) % length
                sid = len(strands)
                tails = []
                p = start
                while p != hp:
                    mapping[p] = sid
                    tails.append(comp[p].chord_id)
                    p = (p + 1) % length
                strands.append(Strand(sid, ci, tuple(tails)))
        pos_to_strand.append(mapping)

    incidences: list[HeadIncidence] = []
    for ci in range(len(d.components)):
        heads = comp_heads[ci]
        m = len(heads)
        base = comp_base[ci]
        for j, hp in enumerate(heads):
            chord = d.chord(d.components[ci][hp].chord_id)
            te = chord.tail
            incidences.append(
                HeadIncidence(
                    chord_id=chord.id,
                    before=base + j,
                    after=base + (j + 1) % m,
                    tail_strand=pos_to_strand[te.component][te.position],
                    sign=chord.sign,
                )
            )
    return StrandTable(tuple(strands), tuple(incidences))


def quadratic_gaussian_parity(d: GaussDiagram) -> dict[int, int]:
    """Chord id -> parity bit, counting for every chord the chords whose
    endpoints alternate with its own."""
    if d.n_components != 1:
        raise NotAKnotError("Gaussian parity is defined for knot diagrams")
    spans = {}
    for c in d.chords:
        p, q = sorted((c.tail.position, c.head.position))
        spans[c.id] = (p, q)
    out = {}
    for c in d.chords:
        p, q = spans[c.id]
        crossings = 0
        for other in d.chords:
            if other.id == c.id:
                continue
            a, b = spans[other.id]
            crossings += (p < a < q) != (p < b < q)
        out[c.id] = crossings % 2
    return out


def enumerate_knot_codes(n_chords: int):
    """Every single-component Gauss code with exactly n_chords chords, all
    signs '+', labels canonical by first appearance.

    Coloring moves never read chord signs, so one sign choice per matching
    covers the search behavior of all of them.
    """
    if n_chords == 0:
        yield "."
        return
    total = 2 * n_chords
    tokens: list[str] = []

    def rec(pos: int, open_chords: dict[int, str], next_label: int):
        if pos == total:
            yield "".join(tokens)
            return
        for label, kind in list(open_chords.items()):
            other = "U" if kind == "O" else "O"
            tokens.append(f"{other}{label}+")
            del open_chords[label]
            yield from rec(pos + 1, open_chords, next_label)
            open_chords[label] = kind
            tokens.pop()
        if next_label <= n_chords:
            for kind in ("O", "U"):
                tokens.append(f"{kind}{next_label}+")
                open_chords[next_label] = kind
                yield from rec(pos + 1, open_chords, next_label + 1)
                del open_chords[next_label]
                tokens.pop()

    yield from rec(0, {}, 1)


def brute_force_omega(d: GaussDiagram):
    """Minimal seed count by naive reachability: for each subset size, walk
    every subset lexicographically and BFS over colored sets under single
    coloring moves.  Returns (omega, first successful subset)."""
    table = strand_table(d)
    n = table.n_strands
    moves = [(i.before, i.after, i.tail_strand) for i in table.incidences]
    full = frozenset(range(n))
    for k in range(1, n + 1):
        for comb in itertools.combinations(range(n), k):
            start = frozenset(comb)
            if _bfs_reaches(start, full, moves):
                return k, comb
    raise AssertionError("seeding every strand always succeeds")


def _bfs_reaches(start, full, moves) -> bool:
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == full:
            return True
        for before, after, tail in moves:
            if tail not in state:
                continue
            b, a = before in state, after in state
            if b == a:
                continue
            nxt = state | {after if b else before}
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return full in seen


def _saturate_np(before, after, tail, colored):
    """Vectorized closure of the coloring-move operator on a bool array."""
    while True:
        fire = colored[tail] & (colored[before] ^ colored[after])
        if not fire.any():
            return colored
        colored[before[fire]] = True
        colored[after[fire]] = True


def _search_level_np(before, after, tail, comp_of, n_strands, n_comps, k, deadline):
    need = frozenset(range(n_comps))
    comp_list = [int(c) for c in comp_of]
    examined = 0
    if deadline is not None and time.monotonic() >= deadline:
        return None, examined, True
    for i, comb in enumerate(itertools.combinations(range(n_strands), k)):
        if deadline is not None and i % _NP_CHECK_EVERY == 0 and time.monotonic() >= deadline:
            return None, examined, True
        if {comp_list[s] for s in comb} != need:
            continue
        examined += 1
        colored = np.zeros(n_strands, dtype=bool)
        colored[list(comb)] = True
        if _saturate_np(before, after, tail, colored).all():
            return comb, examined, False
    return None, examined, False


def numpy_search(d: GaussDiagram):
    """(omega, seed_set, subsets_examined) from the numpy seed-subset
    search, levels walked from the component count up as in
    ``wirtinger_number``."""
    table = strand_table(d)
    n = table.n_strands
    before = np.array([i.before for i in table.incidences], dtype=np.int64)
    after = np.array([i.after for i in table.incidences], dtype=np.int64)
    tail = np.array([i.tail_strand for i in table.incidences], dtype=np.int64)
    comp_of = np.array([s.component for s in table.strands], dtype=np.int64)
    examined = 0
    for k in range(d.n_components, n + 1):
        comb, ex, _ = _search_level_np(
            before, after, tail, comp_of, n, d.n_components, k, None
        )
        examined += ex
        if comb is not None:
            return k, tuple(comb), examined
    raise AssertionError("seeding every strand always succeeds")


def shuffled_closure(d: GaussDiagram, seeds, rng: random.Random) -> frozenset:
    """Strands colored by firing the coloring moves from ``seeds`` with the
    arrowheads scanned in an order reshuffled by ``rng`` on every pass."""
    table = strand_table(d)
    colored = [False] * table.n_strands
    for s in seeds:
        colored[s] = True
    incidences = list(table.incidences)
    while True:
        idx = list(range(len(incidences)))
        rng.shuffle(idx)
        fired = False
        for i in idx:
            inc = incidences[i]
            if not colored[inc.tail_strand] or colored[inc.before] == colored[inc.after]:
                continue
            colored[inc.before] = colored[inc.after] = True
            fired = True
        if not fired:
            return frozenset(s for s, c in enumerate(colored) if c)


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


def one_strand_saturates(d: GaussDiagram) -> bool:
    """Whether some single seed strand colors every strand: all n
    one-strand seed sets saturate as one batch, bit s seeding strand s."""
    table = strand_table(d)
    x = [1 << s for s in range(table.n_strands)]
    _saturate_batch(_moves(table), x)
    full = -1
    for bits in x:
        full &= bits
    return full != 0


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
    while (pivot := _sparse_unit_pivot(rows, counts)) is not None:
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


def _sparse_unit_pivot(
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


def core_ideal_lower_bound(
    d: GaussDiagram,
    prime_bound: int = 97,
    deadline: Optional[float] = None,
) -> IdealBoundResult:
    """Bridge-number lower bound 1 + max{k : E_k proper}: the largest
    nullity of ``alexander_core`` at t = u over Z/p, for primes
    p <= ``prime_bound`` and units u; 1, with no witness, when no nullity
    reaches 2.

    Only the common roots of the maximal minors of the core without its
    first column are ranked.  At u = 1 the relations chain the strands into
    one cycle, so a knot's nullity is 1 there and p = 2 has no unit to try.
    The witness is the first (p, u) of largest nullity; the scan stops once
    the nullity reaches the core's width.
    A core at most one wide, or a knot that one strand saturates (which
    builds no core), gives 1.  Raises SearchTimeoutError once
    ``time.perf_counter()`` passes ``deadline``.  Knot diagrams only."""
    if d.n_components != 1:
        raise NotAKnotError("elementary-ideal bound is defined for knot diagrams")
    check_deadline(deadline, _IDEAL)
    core = None if one_strand_saturates(d) else alexander_core(d)
    width = 0 if core is None else core.n_cols
    if width < 2:
        return IdealBoundResult(1, None)
    # column 0 is minus the sum of the others, so it adds no rank
    rest = AlexanderMatrix(tuple(row[1:] for row in core.rows), width - 1)
    minors = laurent_minor_determinants(rest, width - 1, deadline)
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
                if nullity == width:
                    return IdealBoundResult(width, best)
    return IdealBoundResult(1 if best is None else best[2], best)


def core_parity_lower_bound(d: GaussDiagram, prime_bound: int = 97) -> IdealBoundResult:
    """The parity bound as the core bound gave it: the core bound of the
    parity projection."""
    return core_ideal_lower_bound(token_parity_projection(d), prime_bound)


def elementary_ideal_generators(
    a: AlexanderMatrix, k: int, deadline: Optional[float] = None
) -> list[LaurentPolynomial]:
    """Generators of the k-th elementary ideal: the (n-k) x (n-k) minors,
    deduplicated up to sign and powers of t.  Empty when the matrix has too
    few rows for minors of that size."""
    n = a.n_cols
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < {n}, got {k}")
    size = n - k
    if size > len(a.rows):
        return []
    seen = {}
    for minor in laurent_minor_determinants(a, size, deadline):
        canon = minor.unit_canonical()
        seen.setdefault(str(canon), canon)
    return [seen[key] for key in sorted(seen)]


def properness_certificate(
    gens: Sequence[LaurentPolynomial], prime_bound: int = 97
) -> Optional[tuple[int, int]]:
    """Smallest (prime p, unit u) with every generator vanishing at t = u
    over Z/p, or None.  Such a witness shows the ideal misses 1, hence is
    proper; failure to find one proves nothing.

    A unit generator +-t^m vanishes nowhere, so it ends the scan at once.
    For u != 0 the common roots of the generators mod p are exactly the
    roots of their gcd over Z/p (``_gcd_mod``), so u is found by Horner's
    rule on that gcd; the gcd [] (every generator vanishes mod p) gives
    u = 1.  A prime over which the gcd is a nonzero constant has no
    common root; the first such prime computes ``_resultant_filter``'s N,
    and from then on every prime not dividing N is skipped unscanned,
    since a common root mod p makes p divide N.  Both steps only skip
    primes and units with no common root, so the witness is unchanged."""
    if any(g.is_unit for g in gens):
        return None
    res = None  # N, once a prime has shown no common root
    for p in _primes_upto(prime_bound):
        if res and res % p:
            continue
        h = _gcd_mod(gens, p)  # [] when every generator vanishes: u = 1
        if len(h) == 1:
            if res is None:
                res = _resultant_filter(gens)
            continue
        for u in range(1, p):
            v = 0
            for c in reversed(h):
                v = (v * u + c) % p
            if not v:
                return p, u
    return None


class IdealCertificate(NamedTuple):
    k: int
    generators: tuple[LaurentPolynomial, ...]
    witness: Optional[tuple[int, int]]  # (prime, unit) or None
    nontrivial: bool  # some generator is a nonzero polynomial

    @property
    def qualifies(self) -> bool:
        return self.witness is not None and self.nontrivial


@dataclass(frozen=True)
class MinorScanResult:
    bound: int
    certificates: tuple[IdealCertificate, ...]


def minor_scan_ideal_lower_bound(
    d: GaussDiagram,
    prime_bound: int = 97,
    deadline: Optional[float] = None,
) -> MinorScanResult:
    """Bridge-number lower bound 1 + max{k : E_k certified proper and
    nontrivial}, scanning k = 1..n-1 for n strands; 1 when no index qualifies.
    Each E_k is generated by minors of ``alexander_core``, and is (1) from
    the core's width on; a knot that one strand saturates has every E_k
    = (1) and builds no core.  Raises SearchTimeoutError once
    ``time.perf_counter()`` passes ``deadline``.  Knot diagrams only."""
    if d.n_components != 1:
        raise NotAKnotError("elementary-ideal bound is defined for knot diagrams")
    check_deadline(deadline, _IDEAL)
    n = strand_table(d).n_strands
    core = None if one_strand_saturates(d) else alexander_core(d)
    width = 1 if core is None else core.n_cols
    certificates = []
    best = 0
    for k in range(1, n):
        if k >= width:  # E_k = (1)
            certificates.append(IdealCertificate(k, (ONE,), None, True))
            continue
        check_deadline(deadline, _IDEAL)
        gens = elementary_ideal_generators(core, k, deadline)
        nontrivial = any(not g.is_zero for g in gens)
        witness = properness_certificate(gens, prime_bound) if gens else None
        cert = IdealCertificate(k, tuple(gens), witness, nontrivial)
        certificates.append(cert)
        if cert.qualifies:
            best = max(best, k)
    return MinorScanResult(1 + best, tuple(certificates))


def full_matrix_properness_certificate(gens, prime_bound: int = 97):
    """Smallest (prime p, unit u) with every generator vanishing at t = u
    over Z/p, or None: every pair is tried, units included."""
    for p in _primes_upto(prime_bound):
        for u in range(1, p):
            if all(g.evaluate_mod(p, u) == 0 for g in gens):
                return p, u
    return None


def gcd_scan_properness_certificate(
    gens: Sequence[LaurentPolynomial], prime_bound: int = 97
) -> Optional[tuple[int, int]]:
    """Smallest (prime p, unit u) with every generator vanishing at t = u
    over Z/p, or None.  Such a witness shows the ideal misses 1, hence is
    proper; failure to find one proves nothing.  A unit generator +-t^m
    vanishes nowhere, so it ends the scan at once, and a prime over which
    the generators' gcd is a nonzero constant has no common root to scan."""
    if any(g.is_unit for g in gens):
        return None
    for p in _primes_upto(prime_bound):
        if len(_gcd_mod(gens, p)) == 1:
            continue
        for u in range(1, p):
            if all(g.evaluate_mod(p, u) == 0 for g in gens):
                return p, u
    return None


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) of integer polynomials (lowest degree first, nonzero
    leading coefficients, not both constant) as the determinant of their
    Sylvester matrix, by Gaussian elimination over Q."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for k in range(m + n):
        pivot = next((i for i in range(k, m + n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for row in rows[k + 1 :]:
            factor = row[k] / rows[k][k]
            for j in range(k, m + n):
                row[j] -= factor * rows[k][j]
    return int(det)


def token_parity_projection(d: GaussDiagram) -> GaussDiagram:
    """Delete every odd chord, keeping cyclic order, labels and signs.
    All-odd diagrams project to the chordless circle, and a diagram with
    no odd chord is returned itself."""
    parity = gaussian_parity(d)
    if not any(parity.values()):
        return d
    [tokens] = component_tokens(d)
    return from_tokens([[t for t in tokens if parity[t[1]] == 0]])


def integer_poly(g: LaurentPolynomial) -> tuple[int, ...]:
    """Integer coefficients of g times the power of t that gives it a
    nonzero constant term, lowest degree first; () for zero: the form in
    which the library's gcd mod p and resultant filter read a polynomial."""
    span = g.degree_range()
    if span is None:
        return ()
    out = [0] * (span[1] - span[0] + 1)
    for e, c in g.items():
        out[e - span[0]] = c
    return tuple(out)


def _gcd_mod(gens: Sequence[LaurentPolynomial], p: int) -> list[int]:
    """``linkgroup._gcd_mod`` of ``LaurentPolynomial`` generators."""
    return _coefficient_gcd_mod([integer_poly(g) for g in gens], p)


def _resultant_filter(gens: Sequence[LaurentPolynomial]) -> int:
    """``linkgroup._resultant_filter`` of ``LaurentPolynomial`` generators."""
    return _coefficient_resultant_filter([integer_poly(g) for g in gens])


def laurent_minor_determinants(
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
    for rows in itertools.combinations(range(len(a.rows)), size):
        for cols in itertools.combinations(range(a.n_cols), size):
            out.append(det(rows, cols))
    return out


def laurent_presentation(d: GaussDiagram, seq: ColoringSequence) -> AlexanderMatrix:
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


def laurent_sequence_bound(
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
    pres = laurent_presentation(d, seq)
    # column 0 is minus the sum of the others, so it adds no rank
    rest = AlexanderMatrix(tuple(row[1:] for row in pres.rows), width - 1)
    minors = laurent_minor_determinants(rest, width - 1, deadline)
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


def laurent_ideal_lower_bound(
    d: GaussDiagram,
    *,
    prime_bound: int = 97,
    deadline: Optional[float] = None,
    result: Optional[WirtingerResult] = None,
) -> IdealBoundResult:
    """``ideal_lower_bound`` on ``laurent_sequence_bound``."""
    require_knot(d, "elementary-ideal bound")
    check_deadline(deadline, _IDEAL)
    seq = result.sequence if result else apply_coloring_moves(d, reduced_seed_set(d, deadline))
    return laurent_sequence_bound(d, seq, prime_bound=prime_bound, deadline=deadline)


def laurent_parity_lower_bound(
    d: GaussDiagram,
    *,
    prime_bound: int = 97,
    deadline: Optional[float] = None,
    ideal: Optional[IdealBoundResult] = None,
    result: Optional[WirtingerResult] = None,
) -> IdealBoundResult:
    """``parity_lower_bound`` on ``laurent_sequence_bound``, which runs the
    local search on the projection whatever the images of the seeds."""
    require_knot(d, "Gaussian parity")
    if result is not None and result.omega < 2:  # no more seeds in the projection
        return IdealBoundResult(1, None)
    projection = parity_projection(d)
    if projection is d:
        return ideal or laurent_ideal_lower_bound(
            d, prime_bound=prime_bound, deadline=deadline, result=result
        )
    images = None if result is None else _projected_seeds(d, gaussian_parity(d), result.seed_set)
    seq = apply_coloring_moves(projection, reduced_seed_set(projection, deadline, images))
    return laurent_sequence_bound(projection, seq, prime_bound=prime_bound, deadline=deadline)


def laurent_alexander_matrix(d: GaussDiagram) -> AlexanderMatrix:
    """The n x n Alexander matrix, each row built with ``LaurentPolynomial``
    arithmetic from one head incidence of the strand table."""
    n = strand_table(d).n_strands
    rows = []
    for r in strand_table(d).incidences:
        te = LaurentPolynomial.term(1, r.sign)  # t^e
        row = [LaurentPolynomial() for _ in range(n)]
        row[r.tail_strand] = row[r.tail_strand] + (ONE - te)
        row[r.before] = row[r.before] + te
        row[r.after] = row[r.after] - ONE
        rows.append(tuple(row))
    return AlexanderMatrix(tuple(rows), n)


def laurent_matrix(a: AlexanderMatrix) -> AlexanderMatrix:
    """A matrix of {exponent: coefficient} dicts, such as ``alexander_matrix``
    returns, with each entry a ``LaurentPolynomial``."""
    return AlexanderMatrix(tuple(tuple(map(LaurentPolynomial, row)) for row in a.rows), a.n_cols)


def row_sums_at_one(a: AlexanderMatrix) -> list[int]:
    """Each row's sum at t = 1 of a matrix of {exponent: coefficient}
    dicts: the former ``AlexanderMatrix.row_sums_at_one``."""
    return [sum(sum(g.values()) for g in row) for row in a.rows]


def full_matrix_ideal_lower_bound(d: GaussDiagram, prime_bound: int = 97):
    """The ideal bound from every minor of the full n x n Alexander
    matrix, as the library computed it before the Alexander core."""
    if d.n_components != 1:
        raise NotAKnotError("elementary-ideal bound is defined for knot diagrams")
    a = laurent_alexander_matrix(d)
    n = strand_table(d).n_strands
    certificates = []
    best = 0
    for k in range(1, n):
        gens = elementary_ideal_generators(a, k)
        nontrivial = any(not g.is_zero for g in gens)
        witness = full_matrix_properness_certificate(gens, prime_bound) if gens else None
        cert = IdealCertificate(k, tuple(gens), witness, nontrivial)
        certificates.append(cert)
        if cert.qualifies:
            best = max(best, k)
    return MinorScanResult(1 + best, tuple(certificates))


def dense_alexander_core(a: AlexanderMatrix) -> AlexanderMatrix:
    """Eliminate unit pivots +-t^m over Z[t, 1/t] until none is left.

    Each pivot's row clears the rest of its column, then the pivot's row and
    column go.  The result presents the same module, so for k below its
    width E_k is the ideal of its (width - k)-minors, and E_k = (1) above.
    Pivots are chosen by least fill-in (Markowitz), ties by position.
    """
    rows = [{j: p for j, p in enumerate(row) if not p.is_zero} for row in a.rows]
    cols = list(range(a.n_cols))
    while (pivot := _unit_pivot(rows)) is not None:
        r, c = pivot
        prow = rows.pop(r)
        [(m, sign)] = prow.pop(c).items()
        scale = LaurentPolynomial({-m: -sign})  # -1 / pivot
        for row in rows:
            f = row.pop(c, None)
            if f is None:
                continue
            f = f * scale
            for j, p in prow.items():
                v = row.get(j, ZERO) + f * p
                if v.is_zero:
                    row.pop(j, None)
                else:
                    row[j] = v
        cols.remove(c)
    return AlexanderMatrix(tuple(tuple(row.get(j, ZERO) for j in cols) for row in rows), len(cols))


def _unit_pivot(rows: list[dict[int, LaurentPolynomial]]) -> Optional[tuple[int, int]]:
    counts: dict[int, int] = {}
    for row in rows:
        for j in row:
            counts[j] = counts.get(j, 0) + 1
    best = None
    for i, row in enumerate(rows):
        for j, p in row.items():
            if p.is_unit:
                key = ((len(row) - 1) * (counts[j] - 1), i, j)
                if best is None or key < best:
                    best = key
    return None if best is None else best[1:]


def ideal_summary(result: MinorScanResult):
    """What the bound certifies, independent of the generators chosen:
    (bound, [(k, witness, nontrivial)])."""
    return result.bound, [(c.k, c.witness, c.nontrivial) for c in result.certificates]


def with_signs(code: str, signs) -> str:
    """``code`` with chord label i signed ``signs[i - 1]`` ('+' or '-')."""
    return re.sub(r"([OU])(\d+)[+-]", lambda m: f"{m[1]}{m[2]}{signs[int(m[2]) - 1]}", code)


def brute_force_colorings(d: GaussDiagram, quandle) -> int:
    """Count strand assignments satisfying every arrowhead relation."""
    table = strand_table(d)
    n = table.n_strands
    count = 0
    for values in itertools.product(range(quandle.order), repeat=n):
        if all(
            values[i.after] == quandle.apply(values[i.before], values[i.tail_strand], i.sign)
            for i in table.incidences
        ):
            count += 1
    return count


def random_diagram(
    rng: random.Random,
    max_chords: int = 8,
    max_components: int = 2,
    min_chords: int = 0,
) -> GaussDiagram:
    """Random valid diagram: chords placed on random components at random
    positions, random signs.  Components may come out chordless."""
    return parse_gauss_code(random_diagram_code(rng, max_chords, max_components, min_chords))


def random_diagram_code(
    rng: random.Random,
    max_chords: int = 8,
    max_components: int = 2,
    min_chords: int = 0,
    min_components: int = 1,
) -> str:
    """The code of ``random_diagram``, drawn the same way."""
    n_comps = rng.randint(min_components, max_components)
    n_chords = rng.randint(min_chords, max_chords)
    per_comp: list[list[str]] = [[] for _ in range(n_comps)]
    for label in range(1, n_chords + 1):
        sign = rng.choice("+-")
        for kind in ("O", "U"):
            comp = rng.randrange(n_comps)
            slot = rng.randint(0, len(per_comp[comp]))
            per_comp[comp].insert(slot, f"{kind}{label}{sign}")
    return "|".join("".join(tokens) if tokens else "." for tokens in per_comp)


def random_knot(rng: random.Random, max_chords: int = 8, min_chords: int = 1) -> GaussDiagram:
    return random_diagram(rng, max_chords=max_chords, max_components=1, min_chords=min_chords)


def random_one_overbridge_code(
    rng: random.Random, max_chords: int = 10, min_chords: int = 1
) -> str:
    """Knot code whose arrowtails sit in one consecutive run, randomly
    rotated so the run may wrap around position zero."""
    n = rng.randint(min_chords, max_chords)
    tail_order = list(range(1, n + 1))
    head_order = list(range(1, n + 1))
    rng.shuffle(tail_order)
    rng.shuffle(head_order)
    signs = {label: rng.choice("+-") for label in range(1, n + 1)}
    tokens = [f"O{label}{signs[label]}" for label in tail_order]
    tokens += [f"U{label}{signs[label]}" for label in head_order]
    cut = rng.randrange(len(tokens))
    return "".join(tokens[cut:] + tokens[:cut])


def simulating_welded_certificate(d: GaussDiagram) -> UnknottingCertificate:
    """Explicit move list reducing a one-overbridge diagram to the chordless
    circle; at most T(T-1)/2 + T moves for T chords."""
    if not is_one_overbridge(d):
        raise NotOneOverbridgeError("diagram has more than one tail-bearing strand")
    initial = to_gauss_code(d)
    [tokens] = component_tokens(d)
    n_chords = d.n_chords
    if n_chords == 0:
        return UnknottingCertificate(initial, (), ".")

    length = len(tokens)
    # the tails form one cyclically consecutive run; find its start
    run_start = next(
        p
        for p in range(length)
        if tokens[p][0] == TAIL and tokens[(p - 1) % length][0] == HEAD
    )
    head_order = []
    p = (run_start + n_chords) % length
    while tokens[p][0] == HEAD:
        head_order.append(tokens[p][1])
        p = (p + 1) % length
        if p == run_start:
            break
    assert len(head_order) == n_chords

    moves: list[WeldedMove] = []
    # sort the tail run to the reverse of the head order by adjacent swaps,
    # so the first-encountered head's chord becomes the innermost kink
    target = list(reversed(head_order))
    rank = {label: i for i, label in enumerate(target)}
    run = [(run_start + i) % length for i in range(n_chords)]
    labels = [tokens[p][1] for p in run]
    for i in range(1, n_chords):
        j = i
        while j > 0 and rank[labels[j - 1]] > rank[labels[j]]:
            labels[j - 1], labels[j] = labels[j], labels[j - 1]
            a, b = run[j - 1], run[j]
            tokens[a], tokens[b] = tokens[b], tokens[a]
            moves.append(WeldedMove("swap", (a, b)))
            j -= 1

    for label in head_order:
        pos = [p for p, t in enumerate(tokens) if t[1] == label]
        p, q = pos
        assert q == (p + 1) % len(tokens) or p == (q + 1) % len(tokens)
        moves.append(WeldedMove("r1", None, label))
        tokens = [t for t in tokens if t[1] != label]

    assert not tokens
    return UnknottingCertificate(initial, tuple(moves), ".")


def insertion_sort_welded_certificate(d: GaussDiagram) -> UnknottingCertificate:
    """Explicit move list reducing a one-overbridge diagram to the chordless
    circle; at most T(T-1)/2 + T moves for T chords, planned from the token
    order by an insertion sort that builds one move per swap."""
    if not is_one_overbridge(d):
        raise NotOneOverbridgeError("diagram has more than one tail-bearing strand")
    initial = to_gauss_code(d)
    [tokens] = component_tokens(d)
    n_chords = d.n_chords
    if n_chords == 0:
        return UnknottingCertificate(initial, (), ".")

    length = len(tokens)
    # the tails form one cyclically consecutive run; the heads follow it
    run_start = next(p for p in range(length) if tokens[p][0] == TAIL and tokens[p - 1][0] == HEAD)
    run = [(run_start + i) % length for i in range(n_chords)]
    head_order = [tokens[(run_start + n_chords + i) % length][1] for i in range(n_chords)]
    # sort the tail run to the reverse of the head order by adjacent swaps,
    # so the first-encountered head's chord becomes the innermost kink
    rank = {label: n_chords - 1 - i for i, label in enumerate(head_order)}
    labels = [tokens[p][1] for p in run]
    moves: list[WeldedMove] = []
    for i in range(1, n_chords):
        j = i
        while j > 0 and rank[labels[j - 1]] > rank[labels[j]]:
            labels[j - 1], labels[j] = labels[j], labels[j - 1]
            moves.append(WeldedMove("swap", (run[j - 1], run[j])))
            j -= 1
    moves += [WeldedMove("r1", chord=label) for label in head_order]
    return UnknottingCertificate(initial, tuple(moves), ".")


def token_scan_replay_certificate(cert: UnknottingCertificate) -> VerifyResult:
    """Re-run a certificate move by move.  Accepts it only if every move is
    legal at its stage, the end state matches ``final``, and the end state
    is the chordless circle.  ``failed_at`` is the first illegal move index,
    or None when the initial parse or the final comparison is what failed."""
    try:
        d = parse_gauss_code(cert.initial)
    except Exception:
        return VerifyResult(False, None)
    if d.n_components != 1:
        return VerifyResult(False, None)
    [tokens] = component_tokens(d)

    for idx, move in enumerate(cert.moves):
        length = len(tokens)
        if move.kind == "swap":
            at = move.at if isinstance(move.at, (tuple, list)) else ()
            if len(at) != 2 or not all(type(i) is int for i in at):
                return VerifyResult(False, idx)
            i, j = at
            if not (0 <= i < length and j == (i + 1) % length):
                return VerifyResult(False, idx)
            if tokens[i][0] != TAIL or tokens[j][0] != TAIL:
                return VerifyResult(False, idx)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif move.kind == "r1":
            if type(move.chord) is not int:
                return VerifyResult(False, idx)
            pos = [p for p, t in enumerate(tokens) if t[1] == move.chord]
            if len(pos) != 2:
                return VerifyResult(False, idx)
            p, q = pos
            if not (q == (p + 1) % length or p == (q + 1) % length):
                return VerifyResult(False, idx)
            tokens = [t for t in tokens if t[1] != move.chord]
        else:
            return VerifyResult(False, idx)

    if tokens or cert.final != ".":
        return VerifyResult(False, None)
    return VerifyResult(True, None)


def head_order_saturate_batch(moves: list[tuple[int, int, int]], x: list[int]) -> None:
    """Close the strand bitsets ``x`` under the coloring moves, in place:
    bit j of x[s] says strand s is colored in subset j."""
    changed = True
    while changed:
        changed = False
        for tail, before, after in moves:
            xb = x[before]
            xa = x[after]
            fire = x[tail] & (xb ^ xa)
            if fire:
                x[before] = xb | fire
                x[after] = xa | fire
                changed = True


def linear_form_alexander_count(d: GaussDiagram, q: FiniteQuandle, result: WirtingerResult) -> int:
    """Colorings of ``d`` by the Alexander quandle ``q``, the walk over
    ``result``'s sequence carrying each strand's value as a linear form in
    the seed values; the count is p^(seeds - rank of the leftover
    relations)."""
    seq = result.sequence
    steps, residual = sequence_relations(d, seq)
    n = strand_table(d).n_strands
    u = _alexander_unit(q)
    assert u is not None, q.name
    p = q.order
    coef = {1: u, -1: pow(u, -1, p)}
    forms: list = [None] * n
    for j, s in enumerate(seq.seeds):
        forms[s] = [int(i == j) for i in range(seq.k)]

    def apply(x, y, sign):
        c = coef[sign]
        return [(c * a + (1 - c) * b) % p for a, b in zip(x, y)]

    for strand, src, tail, sign in steps:
        forms[strand] = apply(forms[src], forms[tail], sign)
    rows = [
        [(a - b) % p for a, b in zip(forms[strand], apply(forms[src], forms[tail], sign))]
        for strand, src, tail, sign in residual
    ]
    return p ** (seq.k - _rank_mod(rows, p))


def assert_same_records(a, b) -> None:
    """``a == b`` with every nested tuple, named tuples included, of the
    same type in both."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, tuple):
        assert len(a) == len(b), (a, b)
        for x, y in zip(a, b):
            assert_same_records(x, y)
    else:
        assert a == b, (a, b)


def named_tuple_from_tokens(component_tokens) -> EndpointDiagram:
    """Build a validated diagram from per-component token lists; an empty
    list is a chordless circle.  Raises the errors of parse_gauss_code:
    a label below 1 first, in code order; then, by ascending label, an
    unbalanced chord before a sign mismatch."""
    if not component_tokens:
        raise EmptyInputError("no components in Gauss code")
    components = []
    ends: dict[int, list] = {}  # label -> [endpoint, sign, ...] in code order
    for ci, tokens in enumerate(component_tokens):
        comp = []
        for pos, (kind, label, sign) in enumerate(tokens):
            if label < 1:
                raise GaussSyntaxError(f"chord label must be positive, got {label}")
            e = Endpoint(kind, label, ci, pos)
            comp.append(e)
            seen = ends.get(label)
            if seen is None:
                ends[label] = [e, sign]
            else:
                seen += (e, sign)
        components.append(tuple(comp))

    chords = []
    for label, seen in sorted(ends.items()):
        if len(seen) != 4 or {seen[0].kind, seen[2].kind} != {TAIL, HEAD}:
            raise UnbalancedChordError(
                f"chord {label} must appear exactly once as O and once as U"
            )
        first, sign, second, other_sign = seen
        if sign != other_sign:
            raise SignMismatchError(f"chord {label} carries both signs")
        tail, head = (first, second) if first.kind == TAIL else (second, first)
        chords.append(Chord(label, sign, tail, head))
    return EndpointDiagram(tuple(components), tuple(chords))


def chord_index_strand_table(d: EndpointDiagram) -> StrandTable:
    """One walk per component: the tails between consecutive heads form a
    strand, and each chord id maps to the strand carrying its tail."""
    strands: list[Strand] = []
    tail_strand: dict[int, int] = {}  # chord id -> strand carrying its arrowtail
    heads: list[tuple[int, int, int]] = []  # (chord, before, after)

    for ci, comp in enumerate(d.components):
        ids = tuple([e.chord_id for e in comp])
        head_positions = [e.position for e in comp if e.kind == HEAD]
        base = len(strands)
        if not head_positions:
            strands.append(Strand(base, ci, ids))
            for cid in ids:
                tail_strand[cid] = base
            continue
        m = len(head_positions)
        last = len(comp) - 1
        prev = head_positions[-1]
        for j, hp in enumerate(head_positions):
            start = prev + 1 if prev < last else 0
            tails = ids[start:hp] if start <= hp else ids[start:] + ids[:hp]
            sid = base + j
            for cid in tails:
                tail_strand[cid] = sid
            strands.append(Strand(sid, ci, tails))
            heads.append((ids[hp], sid, base + (j + 1) % m))
            prev = hp

    chord = d.chord
    incidences = tuple(
        [
            HeadIncidence(cid, before, after, tail_strand[cid], chord(cid).sign)
            for cid, before, after in heads
        ]
    )
    return StrandTable(tuple(strands), incidences)


def endpoint_from_tokens(component_tokens) -> EndpointDiagram:
    """Build a validated diagram from per-component token lists; an empty
    list is a chordless circle.  Raises the errors of parse_gauss_code:
    a label below 1 first, in code order; then, by ascending label, an
    unbalanced chord before a sign mismatch."""
    if not component_tokens:
        raise EmptyInputError("no components in Gauss code")
    components = []
    ends: dict[int, list] = {}  # label -> [endpoint, sign, ...] in code order
    for ci, tokens in enumerate(component_tokens):
        comp = []
        for pos, (kind, label, sign) in enumerate(tokens):
            if label < 1:
                raise GaussSyntaxError(f"chord label must be positive, got {label}")
            e = _new(Endpoint, (kind, label, ci, pos))
            comp.append(e)
            seen = ends.get(label)
            if seen is None:
                ends[label] = [e, sign]
            else:
                seen += (e, sign)
        components.append(tuple(comp))

    chords = []
    for label, seen in sorted(ends.items()):
        if len(seen) != 4 or {seen[0].kind, seen[2].kind} != {TAIL, HEAD}:
            raise UnbalancedChordError(
                f"chord {label} must appear exactly once as O and once as U"
            )
        first, sign, second, other_sign = seen
        if sign != other_sign:
            raise SignMismatchError(f"chord {label} carries both signs")
        tail, head = (first, second) if first.kind == TAIL else (second, first)
        chords.append(_new(Chord, (label, sign, tail, head)))
    return EndpointDiagram(tuple(components), tuple(chords))


def endpoint_strand_table(d: EndpointDiagram) -> StrandTable:
    """One walk per component: the tails between consecutive heads form a
    strand, and each chord id maps to the strand carrying its tail."""
    strands: list[Strand] = []
    tail_strand: dict[int, int] = {}  # chord id -> strand carrying its arrowtail
    heads: list[tuple[int, int, int]] = []  # (chord, before, after)

    for ci, comp in enumerate(d.components):
        ids = tuple([e.chord_id for e in comp])
        head_positions = [e.position for e in comp if e.kind == HEAD]
        base = len(strands)
        if not head_positions:
            strands.append(_new(Strand, (base, ci, ids)))
            for cid in ids:
                tail_strand[cid] = base
            continue
        m = len(head_positions)
        last = len(comp) - 1
        prev = head_positions[-1]
        for j, hp in enumerate(head_positions):
            start = prev + 1 if prev < last else 0
            tails = ids[start:hp] if start <= hp else ids[start:] + ids[:hp]
            sid = base + j
            for cid in tails:
                tail_strand[cid] = sid
            strands.append(_new(Strand, (sid, ci, tails)))
            heads.append((ids[hp], sid, base + (j + 1) % m))
            prev = hp

    sign = {c.id: c.sign for c in d.chords}
    incidences = tuple(
        [
            _new(HeadIncidence, (cid, before, after, tail_strand[cid], sign[cid]))
            for cid, before, after in heads
        ]
    )
    return StrandTable(tuple(strands), incidences)


def endpoint_bridge_count(d: EndpointDiagram) -> int:
    """Number of overbridges: tail-bearing strands plus one per component
    without an arrowtail, chordless circles included (each counts the R1
    kink ensure_tail_per_component would add)."""
    tail_strands = sum(1 for s in endpoint_strand_table(d).strands if s.tails)
    return tail_strands + sum(1 for comp in d.components if all(e.kind != TAIL for e in comp))


def endpoint_ensure_tail_per_component(d: EndpointDiagram) -> EndpointDiagram:
    """Insert an R1 kink (fresh chord, tail then head) on every component
    that carries no arrowtail, chordless circles included."""
    if all(any(e.kind == TAIL for e in comp) for comp in d.components):
        return d
    tokens = [[(e.kind, e.chord_id, d.chord(e.chord_id).sign) for e in comp] for comp in d.components]
    label = max((c.id for c in d.chords), default=0)
    for comp in tokens:
        if not any(kind == TAIL for kind, _, _ in comp):
            label += 1
            comp[:0] = [(TAIL, label, 1), (HEAD, label, 1)]
    return endpoint_from_tokens(tokens)


def endpoint_gaussian_parity(d: EndpointDiagram) -> dict[int, int]:
    """Chord id -> parity bit: the span length between the chord's ends."""
    require_knot(d, "Gaussian parity")
    return {c.id: (abs(c.head.position - c.tail.position) - 1) % 2 for c in d.chords}


def endpoint_parity_projection(d: EndpointDiagram) -> EndpointDiagram:
    """Delete every odd chord: the kept endpoints renumbered in order and
    their chords rebuilt."""
    parity = endpoint_gaussian_parity(d)
    if not any(parity.values()):
        return d
    kept = {}  # old position -> endpoint renumbered in the projection
    for e in d.components[0]:
        if not parity[e.chord_id]:
            kept[e.position] = _new(Endpoint, (e.kind, e.chord_id, 0, len(kept)))
    chords = tuple(
        [
            _new(Chord, (c.id, c.sign, kept[c.tail.position], kept[c.head.position]))
            for c in d.chords
            if not parity[c.id]
        ]
    )
    return EndpointDiagram((tuple(kept.values()),), chords)


def replacing_relabel(
    result: WirtingerResult, found_on: tuple[HeadIncidence, ...], incidences: tuple[HeadIncidence, ...]
) -> WirtingerResult:
    """``result``, found on the arrowheads ``found_on``, for a diagram whose
    arrowheads ``incidences`` join the same strands in the same head order:
    each move's chord id becomes that of the arrowhead at its index."""
    index = {inc.chord_id: i for i, inc in enumerate(found_on)}
    seq = result.sequence
    entries = seq.entries[: seq.k] + tuple(
        [SequenceEntry(e.strand, incidences[index[e.via]].chord_id) for e in seq.entries[seq.k :]]
    )
    return result._replace(sequence=seq._replace(entries=entries))


def cell_render_results(records: Sequence[ResultRecord]) -> str:
    """Render records as CSV, each ``None`` cell written as ''."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(
            [
                rec.name,
                _cell(rec.components),
                _cell(rec.chords),
                _cell(rec.strands),
                _cell(rec.vb_d),
                _cell(rec.omega_d),
                ";".join(str(s) for s in rec.seed_set),
                _cell(rec.ideal_lb),
                _cell(rec.parity_lb),
                rec.status_text,
                0,
            ]
        )
    return buf.getvalue()


def _cell(value) -> str:
    return "" if value is None else str(value)
