"""Gaussian parity of chords and the parity projection of a knot diagram.

The parity of a chord is the number of chords interleaving it, mod 2; the
projection deletes every odd chord.  The ends strictly inside a chord's
span are two per chord nested in it and one per chord crossing it, so the
parity is the span length, |head position - tail position| - 1, mod 2.
Bridge-type lower bounds computed on the projection are bounds for the
original knot, and the projection of a classical (all-even) diagram is the
diagram itself.  The projection is built from the diagram's own endpoints:
the kept ones are renumbered in order and their chords rebuilt, with no
tokenizing or validation, since deleting chords of a valid knot diagram
leaves a valid one.
"""

from __future__ import annotations

from .errors import NotAKnotError
from .gauss import Chord, Endpoint, GaussDiagram
from .linkgroup import IdealBoundResult, ideal_lower_bound


def _require_knot(d: GaussDiagram):
    if d.n_components != 1:
        raise NotAKnotError("Gaussian parity is defined for knot diagrams")


def gaussian_parity(d: GaussDiagram) -> dict[int, int]:
    """Chord id -> parity bit: the number of chords whose endpoints
    alternate with the chord's own around the circle, mod 2.

    The |head.position - tail.position| - 1 ends strictly inside a chord's
    span are two per nested chord and one per crossing chord, so that
    count mod 2 is the parity; no pair of chords is compared."""
    _require_knot(d)
    return {c.id: (abs(c.head.position - c.tail.position) - 1) % 2 for c in d.chords}


def parity_projection(d: GaussDiagram) -> GaussDiagram:
    """Delete every odd chord, keeping cyclic order, labels and signs.
    All-odd diagrams project to the chordless circle, and a diagram with
    no odd chord is returned itself."""
    parity = gaussian_parity(d)
    if not any(parity.values()):
        return d
    kept = {}  # old position -> endpoint renumbered in the projection
    for e in d.components[0]:
        if not parity[e.chord_id]:
            kept[e.position] = Endpoint(e.kind, e.chord_id, 0, len(kept))
    chords = tuple(
        [
            Chord(c.id, c.sign, kept[c.tail.position], kept[c.head.position])
            for c in d.chords
            if not parity[c.id]
        ]
    )
    return GaussDiagram((tuple(kept.values()),), chords)


def parity_lower_bound(
    d: GaussDiagram,
    k_max: int | None = None,
    prime_bound: int = 97,
    deadline: float | None = None,
    ideal: IdealBoundResult | None = None,
) -> IdealBoundResult:
    """Elementary-ideal bound of the parity projection; since the projection
    never raises the bridge count, this bounds the original knot too.
    ``deadline`` is a ``time.perf_counter()`` value, as for
    ``ideal_lower_bound``.  ``ideal``, when given, is ``ideal_lower_bound``
    of ``d`` with the same ``k_max`` and ``prime_bound``; a knot with no odd
    chord is its own projection, so it is returned unchanged."""
    _require_knot(d)
    projection = parity_projection(d)
    if projection is d and ideal is not None:
        return ideal
    return ideal_lower_bound(projection, k_max, prime_bound, deadline)
