"""Gauss-code model for virtual link diagrams.

A diagram is a set of oriented circles carrying signed chords; every chord
runs from its overcrossing passage (token ``O``, the arrowtail) to its
undercrossing passage (token ``U``, the arrowhead).  Textual grammar:

    code      := component ("|" component)*
    component := "." | token+
    token     := ("O" | "U") label sign      with label >= 1, sign in {+, -}

Whitespace between tokens is ignored.  Chord labels are global, so a chord
may join two different components.

This module owns the token codec and the strand table.  A diagram is its
tokens: ``GaussDiagram`` holds a tuple of ``(kind, label, sign)`` tokens per
component and each chord label's sign.  ``parse_gauss_code`` tokenizes a
code and ``from_tokens`` validates tokens into a diagram; ``component_tokens``
is its inverse.  ``format_tokens``, the only formatter, writes a diagram's
tokens for ``to_gauss_code`` and the token list ``welded`` walks.  The
strand table, bridge count, R1 normalization, parity projection and welded
replay read tokens and signs; the ``Endpoint`` and ``Chord`` records are
views, which the batch pipeline never asks for.  Views and strand table
are built once per diagram, on first use, and freed with it.

Each stage is one pass: a component is read with one ``findall``, whose
tokens must cover it, and a token text seen before with one cache lookup;
``from_tokens`` compares the label -> sign maps of the arrowtails and the
arrowheads, and walks the tokens one by one only to report the first fault;
the strand table slices each component's tails between consecutive heads.
Records (``Strand``, ``HeadIncidence``, ``Endpoint``, ``Chord``) are named
tuples made with ``tuple.__new__`` from their field values, which skips the
generated Python ``__new__``: 145 ns a record against 306 ns (timeit,
Python 3.11).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyInputError, GaussSyntaxError, SignMismatchError, UnbalancedChordError

TAIL = "O"
HEAD = "U"

_TOKEN = re.compile(r"[OU][0-9]+[+-]")
_SIGN = {"+": 1, "-": -1}

Token = tuple[str, int, int]  # (kind, chord label, sign)
_kind = itemgetter(0)
_label = itemgetter(1)

_new = tuple.__new__  # a named tuple from its field values, in order


class Endpoint(NamedTuple):
    """One passage of a chord through a circle component."""

    kind: str  # TAIL ("O") or HEAD ("U")
    chord_id: int
    component: int
    position: int


class Chord(NamedTuple):
    id: int
    sign: int
    tail: Endpoint
    head: Endpoint


class GaussDiagram:
    """A tuple of ``(kind, label, sign)`` tokens per component, and
    ``signs``, chord label -> sign in the code order of the arrowtails.
    The constructor takes both as given; ``from_tokens`` validates.
    Equality and hash read the tokens, which fix the signs.  Treat it as
    immutable: the strand table and the views are kept on the instance."""

    __slots__ = ("tokens", "signs", "_strand_table", "_views", "__weakref__")

    def __init__(self, tokens: tuple[tuple[Token, ...], ...], signs: dict[int, int]):
        self.tokens, self.signs = tokens, signs
        self._strand_table = self._views = None  # views: (components, chords, chord id -> chord)

    def __eq__(self, other):
        return self.tokens == other.tokens if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.tokens)

    def __repr__(self):
        return f"GaussDiagram({self.tokens!r}, {self.signs!r})"

    @property
    def n_components(self) -> int:
        return len(self.tokens)

    @property
    def n_chords(self) -> int:
        return len(self.signs)

    @property
    def components(self) -> tuple[tuple[Endpoint, ...], ...]:
        """Cyclic endpoint sequences, one per component."""
        return (self._views or self._build_views())[0]

    @property
    def chords(self) -> tuple[Chord, ...]:
        """The chords, ascending by id; each ends at endpoints of ``components``."""
        return (self._views or self._build_views())[1]

    def chord(self, chord_id: int) -> Chord:
        return (self._views or self._build_views())[2][chord_id]

    def _build_views(self):
        ends: dict[int, list] = {}  # label -> [tail, head]
        for ci, comp in enumerate(self.tokens):
            for pos, (kind, label, _) in enumerate(comp):
                ends.setdefault(label, [None, None])[kind == HEAD] = _new(Endpoint, (kind, label, ci, pos))
        components = tuple(tuple([ends[label][kind == HEAD] for kind, label, _ in comp]) for comp in self.tokens)
        index = {label: _new(Chord, (label, self.signs[label], *ends[label])) for label in sorted(self.signs)}
        self._views = views = (components, tuple(index.values()), index)
        return views


class Strand(NamedTuple):
    """Maximal arc between two consecutive arrowheads of one component.  A
    component without arrowheads is one strand spanning the whole circle."""

    id: int
    component: int
    tails: tuple[int, ...]  # chord ids of the arrowtails, in traversal order


class HeadIncidence(NamedTuple):
    """Local data at one arrowhead: the strand ending there, the strand
    starting there, and the strand carrying the chord's arrowtail."""

    chord_id: int
    before: int
    after: int
    tail_strand: int
    sign: int


class StrandTable(NamedTuple):
    strands: tuple[Strand, ...]
    incidences: tuple[HeadIncidence, ...]  # ordered by (component, head position)

    @property
    def n_strands(self) -> int:
        return len(self.strands)


@dataclass(frozen=True)
class CutSplitWitness:
    kind: str  # "component" (chordless circle) or "arrowhead" (before == after)
    index: int  # component index, or chord id


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a Gauss code string into a validated diagram.

    Raises EmptyInputError, GaussSyntaxError, UnbalancedChordError or
    SignMismatchError on invalid input.
    """
    return from_tokens(_tokenize(text))


def _tokenize(text: str) -> list[list[Token]]:
    stripped = "".join((text or "").split())
    if not stripped:
        raise EmptyInputError("no components in Gauss code")
    out = []
    for ci, comp_text in enumerate(stripped.split("|")):
        if comp_text == ".":
            out.append([])
            continue
        if not comp_text:
            raise GaussSyntaxError(f"component {ci} is empty; use '.' for a chordless circle")
        found = _TOKEN.findall(comp_text)
        if sum(map(len, found)) != len(comp_text):  # the tokens found leave a gap
            raise GaussSyntaxError(f"bad token at {_bad_token(comp_text)!r} in component {ci}")
        out.append(list(map(_read_token, found)))
    return out


@lru_cache(maxsize=4096)
def _read_token(text: str) -> Token:
    """The token of one token text; a text read before is looked up."""
    return (text[0], int(text[1:-1]), _SIGN[text[-1]])


def _bad_token(comp_text: str) -> str:
    """Up to eight characters from the first position where no token
    starts, in a component its tokens do not cover."""
    pos = 0
    while (m := _TOKEN.match(comp_text, pos)) is not None:
        pos = m.end()
    return comp_text[pos:pos + 8]


def from_tokens(component_tokens: Sequence[Sequence[Token]]) -> GaussDiagram:
    """Build a validated diagram from per-component token sequences, each
    token a tuple or a list; an empty one is a chordless circle.  Raises the
    errors of parse_gauss_code: a label below 1 first, in code order; then,
    by ascending label, an unbalanced chord before a sign mismatch."""
    if not component_tokens:
        raise EmptyInputError("no components in Gauss code")
    tokens = tuple([tuple(map(tuple, comp)) for comp in component_tokens])
    signs = {label: sign for comp in tokens for kind, label, sign in comp if kind == TAIL}
    heads = {label: sign for comp in tokens for kind, label, sign in comp if kind == HEAD}
    # valid iff each label has one tail and one head, of one sign, and is positive
    if sum(map(len, tokens)) != 2 * len(signs) or signs != heads or min(signs, default=1) < 1:
        _raise_first_fault(tokens)
    return GaussDiagram(tokens, signs)


def _raise_first_fault(tokens: Sequence[Sequence[Token]]) -> None:
    """Raise the error from_tokens reports for invalid tokens."""
    ends: dict[int, list] = {}  # label -> [kind, sign, ...] in code order
    for comp in tokens:
        for kind, label, sign in comp:
            if label < 1:
                raise GaussSyntaxError(f"chord label must be positive, got {label}")
            ends.setdefault(label, []).extend((kind, sign))
    for label, seen in sorted(ends.items()):
        if len(seen) != 4 or {seen[0], seen[2]} != {TAIL, HEAD}:
            raise UnbalancedChordError(f"chord {label} must appear exactly once as O and once as U")
        if seen[1] != seen[3]:
            raise SignMismatchError(f"chord {label} carries both signs")


def component_tokens(d: GaussDiagram) -> list[list[Token]]:
    """Per-component token lists, copies of the stored tuples;
    from_tokens(component_tokens(d)) == d."""
    return [list(comp) for comp in d.tokens]


def to_gauss_code(d: GaussDiagram) -> str:
    """Serialize with no whitespace; parse(to_gauss_code(d)) == d."""
    return format_tokens(d.tokens)


def format_tokens(component_tokens: Sequence[Sequence[Token]]) -> str:
    """The code of per-component token lists, as to_gauss_code writes it."""
    return "|".join(
        "".join(f"{kind}{label}{'+' if sign > 0 else '-'}" for kind, label, sign in tokens) or "."
        for tokens in component_tokens
    )


def strand_table(d: GaussDiagram) -> StrandTable:
    """Strand decomposition and arrowhead incidences of a diagram, built
    once per diagram object.

    Strand ids are dense and deterministic: components in order, and within
    a component by the position of the terminating arrowhead.
    """
    table = d._strand_table
    if table is None:
        table = d._strand_table = _build_strand_table(d)
    return table


def _build_strand_table(d: GaussDiagram) -> StrandTable:
    """One walk per component: the tails between consecutive heads form a
    strand, and each chord id maps to the strand carrying its tail."""
    strands: list[Strand] = []
    tail_strand: dict[int, int] = {}  # chord id -> strand carrying its arrowtail
    heads: list[tuple[int, int, int]] = []  # (chord, before, after)

    for ci, comp in enumerate(d.tokens):
        ids = tuple(map(_label, comp))
        head_positions = [p for p, kind in enumerate(map(_kind, comp)) if kind == HEAD]
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

    signs = d.signs
    incidences = [
        _new(HeadIncidence, (cid, before, after, tail_strand[cid], signs[cid])) for cid, before, after in heads
    ]
    return _new(StrandTable, (tuple(strands), tuple(incidences)))


def bridge_count(d: GaussDiagram) -> int:
    """Number of overbridges: tail-bearing strands plus one per component
    without an arrowtail, chordless circles included (each counts the R1
    kink ensure_tail_per_component would add)."""
    tail_strands = sum(1 for s in strand_table(d).strands if s.tails)
    return tail_strands + sum(1 for comp in d.tokens if TAIL not in map(_kind, comp))


def cut_split_witness(d: GaussDiagram) -> Optional[CutSplitWitness]:
    """A chordless component or an arrowhead whose strand is adjacent to
    itself, if any; None otherwise."""
    for ci, comp in enumerate(d.tokens):
        if not comp:
            return CutSplitWitness("component", ci)
    for inc in strand_table(d).incidences:
        if inc.before == inc.after:
            return CutSplitWitness("arrowhead", inc.chord_id)
    return None


def is_cut_split(d: GaussDiagram) -> bool:
    return cut_split_witness(d) is not None


def ensure_tail_per_component(d: GaussDiagram) -> GaussDiagram:
    """Insert an R1 kink (fresh chord, tail then head) on every component
    that carries no arrowtail, chordless circles included."""
    if all(TAIL in map(_kind, comp) for comp in d.tokens):
        return d
    tokens = component_tokens(d)
    label = max(d.signs, default=0)
    for comp in tokens:
        if TAIL not in map(_kind, comp):
            label += 1
            comp[:0] = [(TAIL, label, 1), (HEAD, label, 1)]
    return from_tokens(tokens)
