"""Gaussian parity of chords and the parity projection of a knot diagram.

The parity of a chord is the number of chords interleaving it, mod 2; the
projection deletes every odd chord.  The ends strictly inside a chord's
span are two per chord nested in it and one per chord crossing it, so the
parity is the span length, |head position - tail position| - 1, mod 2.
Bridge-type lower bounds computed on the projection are bounds for the
original knot, and the projection of a classical (all-even) diagram is the
diagram itself.  The projection is built from the diagram's own tokens:
the even chords' tokens are kept in order, and their signs, with no
tokenizing or validation, since deleting chords of a valid knot diagram
leaves a valid one.
"""

from __future__ import annotations

from .errors import require_knot
from .gauss import GaussDiagram, strand_table
from .linkgroup import IdealBoundResult, ideal_lower_bound, sequence_bound
from .search import WirtingerResult, apply_coloring_moves, reduced_seed_set


def gaussian_parity(d: GaussDiagram) -> dict[int, int]:
    """Chord id -> parity bit, ascending by id: the number of chords whose
    endpoints alternate with the chord's own around the circle, mod 2.
    For ends at positions p and q that is the span length |q - p| - 1 mod
    2 (see above), so the parity of p + q + 1, summed in one token pass."""
    require_knot(d, "Gaussian parity")
    span = dict.fromkeys(sorted(d.signs), 1)  # chord id -> 1 + the positions of its ends
    for pos, (_, label, _) in enumerate(d.tokens[0]):
        span[label] += pos
    return {label: total % 2 for label, total in span.items()}


def parity_projection(d: GaussDiagram) -> GaussDiagram:
    """Delete every odd chord, keeping cyclic order, labels and signs.
    All-odd diagrams project to the chordless circle, and a diagram with
    no odd chord is returned itself."""
    return _project(d, gaussian_parity(d))


def _project(d: GaussDiagram, parity: dict[int, int]) -> GaussDiagram:
    """``parity_projection`` of ``d``, whose ``gaussian_parity`` is ``parity``."""
    if not any(parity.values()):
        return d
    kept = tuple([t for t in d.tokens[0] if not parity[t[1]]])
    return GaussDiagram((kept,), {label: sign for label, sign in d.signs.items() if not parity[label]})


def _projected_seeds(d: GaussDiagram, parity: dict[int, int], seeds) -> set[int]:
    """The projection's strands holding the strands ``seeds`` of ``d``, of parity ``parity``:
    knot strand j ends at head j, so it lies in the one numbered by the even heads before j."""
    even = [0]  # even[j]: even heads before head j
    for inc in strand_table(d).incidences:
        even.append(even[-1] + 1 - parity[inc.chord_id])
    return {even[s] % (even[-1] or 1) for s in seeds}


def parity_lower_bound(
    d: GaussDiagram,
    *,
    prime_bound: int = 97,
    deadline: float | None = None,
    ideal: IdealBoundResult | None = None,
    result: WirtingerResult | None = None,
) -> IdealBoundResult:
    """Elementary-ideal bound of the parity projection; since the projection
    never raises the bridge count, this bounds the original knot too.
    ``deadline`` is a ``time.perf_counter()`` value, as for
    ``ideal_lower_bound``.  ``ideal``, when given, is ``ideal_lower_bound``
    of ``d`` with the same ``prime_bound``; a knot with no odd chord is its
    own projection, so it is returned unchanged.  Otherwise the projection
    is ranked on its ``reduced_seed_set``, started from the images of the
    seeds of ``result`` (the search of ``d``) when given: they color it, as
    a move at an even chord is a move there too, and a single image
    colors it alone, which gives 1 with no search."""
    require_knot(d, "Gaussian parity")
    if result is not None and result.omega < 2:  # no more seeds in the projection
        return IdealBoundResult(1, None)
    parity = gaussian_parity(d)
    if not any(parity.values()):  # d is its own projection
        return ideal or ideal_lower_bound(d, prime_bound=prime_bound, deadline=deadline, result=result)
    images = None if result is None else _projected_seeds(d, parity, result.seed_set)
    if images is not None and len(images) == 1:  # a width-1 presentation
        return IdealBoundResult(1, None)
    projection = _project(d, parity)
    seq = apply_coloring_moves(projection, reduced_seed_set(projection, deadline, images))
    return sequence_bound(projection, seq, prime_bound=prime_bound, deadline=deadline)
