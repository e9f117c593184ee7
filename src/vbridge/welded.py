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

import bisect
import json
from typing import NamedTuple, Optional

from .errors import NotOneOverbridgeError, require_knot
from .gauss import HEAD, TAIL, GaussDiagram, _tokenize, bridge_count, format_tokens, from_tokens
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
        """The certificate ``to_json_dict`` wrote; ValueError on a missing
        key, a value of the wrong type or a move of no known kind."""
        try:
            moves = []
            for m in data["moves"]:
                if m.get("kind") == "swap" and "at" in m:
                    at = m["at"]
                    if type(at) is not list or any(type(i) is not int for i in at):
                        raise ValueError(f"a swap's positions are a list of integers in {m!r}")
                    moves.append(WeldedMove("swap", at=tuple(at)))
                elif m.get("kind") == "r1" and "chord" in m:
                    if type(m["chord"]) is not int:
                        raise ValueError(f"an r1 move's chord is an integer in {m!r}")
                    moves.append(WeldedMove("r1", chord=m["chord"]))
                else:
                    raise ValueError(f"unknown move kind or missing field in {m!r}")
            initial, final = data["initial"], data["final"]
        except (AttributeError, KeyError, TypeError) as exc:  # a missing key or a mistyped value
            raise ValueError(f"malformed certificate: {exc!r}") from exc
        if not (type(initial) is type(final) is str):
            raise ValueError("a certificate's initial and final are strings")
        return cls(initial, tuple(moves), final)

    @classmethod
    def from_json(cls, text: str) -> "UnknottingCertificate":
        return cls.from_json_dict(json.loads(text))


def is_one_overbridge(d: GaussDiagram) -> bool:
    """True when exactly one strand carries arrowtails, or the diagram is
    the chordless circle."""
    require_knot(d, "one-overbridge test")
    return bridge_count(d) == 1


def welded_unknot_certificate(d: GaussDiagram) -> UnknottingCertificate:
    """Explicit move list reducing a one-overbridge diagram to the chordless
    circle; at most T(T-1)/2 + T moves for T chords.  The moves are planned
    from the token order in O(T log T) Python steps, the swaps copied as
    slices of T - 1 prebuilt moves, and never carried out: ``replay_certificate``
    checks what the plan relies on, that T heads follow the tail run, that
    each kink is adjacent when it is peeled and that the diagram ends
    empty."""
    require_knot(d, "one-overbridge test")
    [tokens] = d.tokens
    initial = format_tokens([tokens])
    n_chords = d.n_chords
    if n_chords == 0:
        return UnknottingCertificate(initial, (), ".")

    length = len(tokens)
    # one overbridge: the tails form one cyclic run, and the heads follow it
    run_start, *more = [p for p in range(length) if tokens[p][0] == TAIL and tokens[p - 1][0] == HEAD]
    if more:
        raise NotOneOverbridgeError("diagram has more than one tail-bearing strand")
    run = [(run_start + i) % length for i in range(n_chords)]
    head_order = [tokens[(run_start + n_chords + i) % length][1] for i in range(n_chords)]
    # sort the tail run to the reverse of the head order by adjacent swaps,
    # so the first-encountered head's chord becomes the innermost kink.  An
    # insertion sort moves the i-th tail left past the c earlier tails that
    # rank above it, by the swaps at run positions i-1, i-2, ..., i-c: the
    # prebuilt swaps[i-c:i] reversed, with c counted by bisection
    rank = {label: n_chords - 1 - i for i, label in enumerate(head_order)}
    swaps = [WeldedMove("swap", (run[j], run[j + 1])) for j in range(n_chords - 1)]
    ranks: list[int] = []  # of the tails sorted so far, ascending
    moves: list[WeldedMove] = []
    for i, p in enumerate(run):
        r = rank[tokens[p][1]]
        c = i - bisect.bisect(ranks, r)
        moves += swaps[i - c : i][::-1]
        bisect.insort(ranks, r)
    moves += [WeldedMove("r1", chord=label) for label in head_order]
    return UnknottingCertificate(initial, tuple(moves), ".")


def replay_certificate(cert: UnknottingCertificate) -> VerifyResult:
    """Re-run a certificate move by move on the token list of its parsed
    ``initial``.  Accepts it only if every move is a legal WeldedMove at
    its stage, the end state matches ``final``, and the end state is the
    chordless circle.  ``failed_at`` is the first illegal move index, or
    None when the initial parse or the final comparison is what failed."""
    try:
        parsed = _tokenize(cert.initial)
        d = from_tokens(parsed)
    except Exception:
        return VerifyResult(False, None)
    if d.n_components != 1:
        return VerifyResult(False, None)
    [tokens] = parsed  # the parse's own token list, changed in place

    for idx, move in enumerate(cert.moves):
        length = len(tokens)
        if not isinstance(move, WeldedMove):
            return VerifyResult(False, idx)
        if move.kind == "swap":
            at = move.at  # two int positions; True is an int instance, not of type int
            if not (isinstance(at, (tuple, list)) and len(at) == 2 and type(at[0]) is type(at[1]) is int):
                return VerifyResult(False, idx)
            i, j = at
            if not (0 <= i < length and j == (i + 1) % length) or tokens[i][0] != TAIL or tokens[j][0] != TAIL:
                return VerifyResult(False, idx)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif move.kind == "r1":
            # a chord's two tokens, found by value: O(T) in C, not in Python
            if type(move.chord) is not int:  # True would look up chord 1
                return VerifyResult(False, idx)
            try:
                sign = d.signs[move.chord]
                p = tokens.index((TAIL, move.chord, sign))
                q = tokens.index((HEAD, move.chord, sign))
            except (KeyError, ValueError):  # unknown or peeled chord
                return VerifyResult(False, idx)
            if (p - q) % length not in (1, length - 1):
                return VerifyResult(False, idx)
            del tokens[max(p, q)]
            del tokens[min(p, q)]
        else:
            return VerifyResult(False, idx)

    if tokens or cert.final != ".":
        return VerifyResult(False, None)
    return VerifyResult(True, None)
