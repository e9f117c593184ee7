"""Gauss-code model for virtual link diagrams.

A diagram is a set of oriented circles carrying signed chords; every chord
runs from its overcrossing passage (token ``O``, the arrowtail) to its
undercrossing passage (token ``U``, the arrowhead).  Textual grammar:

    code      := component ("|" component)*
    component := "." | token+
    token     := ("O" | "U") label sign      with label >= 1, sign in {+, -}

Whitespace between tokens is ignored.  Chord labels are global, so a chord
may join two different components.

This module owns the token codec and the strand table.  ``parse_gauss_code``
tokenizes a code and ``from_tokens`` builds the validated diagram from
per-component ``(kind, label, sign)`` tokens; ``component_tokens`` is its
inverse and ``to_gauss_code`` the only formatter.  Other modules rewrite a
diagram as tokens, never as text.  Each diagram builds its strand table
once, on first use, and the table is freed with the diagram.

The records a parse and a strand table build many of (``Endpoint``,
``Chord``, ``Strand``, ``HeadIncidence``) are named tuples, which cost
about a third of a frozen dataclass to build.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import (
    EmptyInputError,
    GaussSyntaxError,
    SignMismatchError,
    UnbalancedChordError,
)

TAIL = "O"
HEAD = "U"

_TOKEN = re.compile(r"([OU])([0-9]+)([+-])")

Token = tuple[str, int, int]  # (kind, chord label, sign)


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


@dataclass(frozen=True)
class GaussDiagram:
    """Immutable parsed diagram: cyclic endpoint sequences plus chords."""

    components: tuple[tuple[Endpoint, ...], ...]
    chords: tuple[Chord, ...]  # ascending by chord id

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_chords(self) -> int:
        return len(self.chords)

    @cached_property
    def _chord_index(self) -> dict:
        return {c.id: c for c in self.chords}

    def chord(self, chord_id: int) -> Chord:
        return self._chord_index[chord_id]

    @cached_property
    def _strand_table(self) -> StrandTable:
        return _build_strand_table(self)


class Strand(NamedTuple):
    """Maximal arc between two consecutive arrowheads of one component.

    ``span`` is the half-open cyclic position interval [start, stop); for a
    strand ending at an arrowhead, stop is that head's position.  A component
    without arrowheads is one strand spanning the whole circle.
    """

    id: int
    component: int
    span: tuple[int, int]
    head_pos: Optional[int]  # position of the terminating arrowhead
    tails: tuple[int, ...]  # chord ids of the arrowtails, in traversal order


class HeadIncidence(NamedTuple):
    """Local data at one arrowhead: the strand ending there, the strand
    starting there, and the strand carrying the chord's arrowtail."""

    chord_id: int
    before: int
    after: int
    tail_strand: int
    sign: int
    component: int
    position: int


@dataclass(frozen=True)
class StrandTable:
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
            m = _TOKEN.match(comp_text, pos)
            if m is None:
                raise GaussSyntaxError(f"bad token at {comp_text[pos:pos + 8]!r} in component {ci}")
            kind, label_text, sign_text = m.groups()
            tokens.append((kind, int(label_text), 1 if sign_text == "+" else -1))
            pos = m.end()
        out.append(tokens)
    return out


def from_tokens(component_tokens: Sequence[Sequence[Token]]) -> GaussDiagram:
    """Build a validated diagram from per-component token lists; an empty
    list is a chordless circle.  Raises the errors of parse_gauss_code."""
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
    return GaussDiagram(components, tuple(chords))


def component_tokens(d: GaussDiagram) -> list[list[Token]]:
    """Per-component token lists; from_tokens(component_tokens(d)) == d."""
    return [
        [(e.kind, e.chord_id, d.chord(e.chord_id).sign) for e in comp]
        for comp in d.components
    ]


def to_gauss_code(d: GaussDiagram) -> str:
    """Serialize with no whitespace; parse(to_gauss_code(d)) == d."""
    return "|".join(
        "".join(f"{kind}{label}{'+' if sign > 0 else '-'}" for kind, label, sign in tokens) or "."
        for tokens in component_tokens(d)
    )


def strand_table(d: GaussDiagram) -> StrandTable:
    """Strand decomposition and arrowhead incidences of a diagram, built
    once per diagram object.

    Strand ids are dense and deterministic: components in order, and within
    a component by the position of the terminating arrowhead.
    """
    return d._strand_table


def _build_strand_table(d: GaussDiagram) -> StrandTable:
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
            strands.append(Strand(sid, ci, (0, length), None, tails))
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
                strands.append(Strand(sid, ci, (start, hp), hp, tuple(tails)))
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
                    component=ci,
                    position=hp,
                )
            )
    return StrandTable(tuple(strands), tuple(incidences))


def bridge_count(d: GaussDiagram) -> int:
    """Number of overbridges: tail-bearing strands plus one per component
    without an arrowtail, chordless circles included (each counts the R1
    kink ensure_tail_per_component would add)."""
    tail_strands = sum(1 for s in strand_table(d).strands if s.tails)
    return tail_strands + sum(1 for comp in d.components if all(e.kind != TAIL for e in comp))


def cut_split_witness(d: GaussDiagram) -> Optional[CutSplitWitness]:
    """A chordless component or an arrowhead whose strand is adjacent to
    itself, if any; None otherwise."""
    for ci, comp in enumerate(d.components):
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
    if all(any(e.kind == TAIL for e in comp) for comp in d.components):
        return d
    tokens = component_tokens(d)
    label = max((c.id for c in d.chords), default=0)
    for comp in tokens:
        if not any(kind == TAIL for kind, _, _ in comp):
            label += 1
            comp[:0] = [(TAIL, label, 1), (HEAD, label, 1)]
    return from_tokens(tokens)
