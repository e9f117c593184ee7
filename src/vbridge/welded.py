"""Unknotting certificates for one-overbridge diagrams under welded moves.

When a knot diagram has exactly one tail-bearing strand, all arrowtails sit
consecutively between two arrowheads.  Adjacent arrowtails may then be
swapped (overcrossings commute in the welded setting) until the tails are
nested against the head order: the chord whose head comes first after the
overbridge gets its tail last, so tail and head become adjacent and the
chord peels off as a Reidemeister-1 kink.  Repeating empties the diagram in
at most T(T-1)/2 swaps plus T deletions for T chords.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .errors import NotAKnotError, NotOneOverbridgeError
from .gauss import HEAD, TAIL, GaussDiagram, bridge_count, component_tokens, parse_gauss_code, to_gauss_code
from .search import VerifyResult


class WeldedMove(NamedTuple):
    kind: str  # "swap" (adjacent arrowtails) or "r1" (delete a kink chord)
    at: Optional[tuple[int, int]] = None  # swap: cyclically adjacent positions
    chord: Optional[int] = None  # r1: chord id

    def to_json_dict(self) -> dict:
        if self.kind == "swap":
            return {"kind": "swap", "at": list(self.at)}
        return {"kind": "r1", "chord": self.chord}


class UnknottingCertificate(NamedTuple):
    initial: str
    moves: tuple[WeldedMove, ...]
    final: str

    def to_json_dict(self) -> dict:
        return {
            "initial": self.initial,
            "moves": [m.to_json_dict() for m in self.moves],
            "final": self.final,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "UnknottingCertificate":
        moves = []
        for m in data["moves"]:
            if m["kind"] == "swap":
                moves.append(WeldedMove("swap", at=tuple(int(i) for i in m["at"])))
            elif m["kind"] == "r1":
                moves.append(WeldedMove("r1", chord=int(m["chord"])))
            else:
                raise ValueError(f"unknown move kind {m['kind']!r}")
        return cls(data["initial"], tuple(moves), data["final"])

    @classmethod
    def from_json(cls, text: str) -> "UnknottingCertificate":
        return cls.from_json_dict(json.loads(text))


def is_one_overbridge(d: GaussDiagram) -> bool:
    """True when exactly one strand carries arrowtails, or the diagram is
    the chordless circle."""
    if d.n_components != 1:
        raise NotAKnotError("one-overbridge test is defined for knot diagrams")
    return bridge_count(d) == 1


def welded_unknot_certificate(d: GaussDiagram) -> UnknottingCertificate:
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


def replay_certificate(cert: UnknottingCertificate) -> VerifyResult:
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
            if move.at is None or length == 0:
                return VerifyResult(False, idx)
            i, j = move.at
            if not (0 <= i < length and 0 <= j < length and j == (i + 1) % length):
                return VerifyResult(False, idx)
            if tokens[i][0] != TAIL or tokens[j][0] != TAIL:
                return VerifyResult(False, idx)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif move.kind == "r1":
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
