"""Wirtinger number search: minimal seed sets under coloring-move saturation.

A coloring move fires at an arrowhead when the strand carrying the chord's
arrowtail is colored and exactly one of the two strands meeting at the head
is colored; the move copies that color to the uncolored one.  The Wirtinger
number is the least number of seed strands whose saturation colors every
strand.  Certificates record the order in which strands were colored and the
arrowhead justifying each step.

The search saturates many seed subsets at once.  Each strand gets a Python
int whose bit j says "colored in subset j"; at an arrowhead the bits where
the tail strand is colored and exactly one head-side strand is are
``x[tail] & (x[before] ^ x[after])``, and OR-ing them into both head-side
strands fires the move in every subset together.  Passes over the
arrowheads alternate between head order and reverse head order until one
fires nothing: a color that spreads against head order crosses a run of
arrowheads in one reverse pass instead of one pass per arrowhead.  The
closure does not depend on firing order, so only the pass count changes.
Ints have no width limit, so any number of strands and subsets is handled
the same way.  ``apply_coloring_moves`` computes the same closure strand
by strand to build certificates.

A batch lays out the size-k subsets in lexicographic order as consecutive
(k-j)-prefixes, each followed by every choice of its last j seeds among
the strands after it.  The bits of those choices come from a pattern per
count of free strands, cached for j >= 2, so a prefix costs one shift
and OR per strand after it, however many subsets it owns.  j is at most
3, and less when the n-strand block, C(n, j) subsets, would be wider
than eight batches; that bounds the batch width, the time between
deadline checks and the cache.  Three last seeds fit up to 37 strands,
two up to 128.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .errors import CutSplitError, SearchExhaustedError, check_deadline
from .gauss import GaussDiagram, HeadIncidence, StrandTable, _new, cut_split_witness, strand_table

if TYPE_CHECKING:
    from fractions import Fraction


class SequenceEntry(NamedTuple):
    strand: int
    via: Optional[int]  # chord id of the justifying arrowhead; None for seeds


class ColoringSequence(NamedTuple):
    """Strands in coloring order; the first k entries are the seeds."""

    entries: tuple[SequenceEntry, ...]
    k: int

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(e.strand for e in self.entries)

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(e.strand for e in self.entries[: self.k])

    def heights(self) -> dict[int, Fraction]:
        """Height of the j-th colored strand is 1/(j+1), j counted from 1."""
        # imported here: fractions loads decimal and numbers, which an
        # import of the package otherwise skips
        from fractions import Fraction

        return {e.strand: Fraction(1, j + 2) for j, e in enumerate(self.entries)}

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "order": list(self.order),
            "via": [e.via for e in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ColoringSequence":
        """The sequence ``to_json_dict`` wrote; ValueError on a missing key,
        a value of the wrong type, or ``order`` and ``via`` of two lengths."""
        try:
            k, order, via = data["k"], data["order"], data["via"]
        except (KeyError, TypeError) as exc:  # a missing key, or no object
            raise ValueError("a coloring sequence needs k, order and via") from exc
        if type(order) is not list or type(via) is not list or len(order) != len(via):
            raise ValueError("a coloring sequence's order and via are lists of one length")
        if any(type(x) is not int for x in (k, *order, *(v for v in via if v is not None))):
            raise ValueError("a coloring sequence's k, strands and chord ids are integers")
        return cls(tuple(map(SequenceEntry, order, via)), k)


class VerifyResult(NamedTuple):
    ok: bool
    failed_at: Optional[int] = None  # index of the first offending entry/move

    def __bool__(self):
        return self.ok


class SearchStats(NamedTuple):
    subsets_examined: int
    saturation_steps: int


class WirtingerResult(NamedTuple):
    omega: int
    seed_set: tuple[int, ...]
    sequence: ColoringSequence
    stats: SearchStats


_BATCH_BITS = 1024  # a batch grows by whole prefixes until it holds this many subsets
_BLOCK_BATCHES = 8  # the last seeds of one prefix span at most this many batches


def _moves(table: StrandTable) -> list[tuple[int, int, int]]:
    """(tail, before, after) strands of every arrowhead, in head order."""
    return [(i.tail_strand, i.before, i.after) for i in table.incidences]


def _saturate_batch(moves: list[tuple[int, int, int]], x: list[int]) -> None:
    """Close the strand bitsets ``x`` under the coloring moves, in place:
    bit j of x[s] says strand s is colored in subset j.  Passes alternate
    between head order and reverse head order and stop after one that
    fires nothing."""
    backward = False
    while True:
        changed = False
        for tail, before, after in reversed(moves) if backward else moves:
            xb = x[before]
            xa = x[after]
            fire = x[tail] & (xb ^ xa)
            if fire:
                x[before] = xb | fire
                x[after] = xa | fire
                changed = True
        if not changed:
            return
        backward = not backward


@functools.cache
def _tail_pattern(m: int, j: int) -> tuple[tuple[int, ...], int]:
    """The j-subsets of range(m) in lexicographic order as bit patterns:
    entry s has bit i set when s is in the i-th subset.  Returns the m
    entries and the subset count C(m, j).

    The subsets holding 0 come first, then those of the strands after it,
    so entry 0 is C(m-1, j-1) ones and entry s is entry s-1 of P(m-1, j-1)
    with entry s-1 of P(m-1, j) shifted past those ones.  j = 1 is built
    directly, so only j >= 2 recurses, m - j + 1 deep."""
    if j == 1:
        return tuple(1 << s for s in range(m)), m
    if m < j:
        return (0,) * m, 0
    head, w = _tail_pattern(m - 1, j - 1)
    rest, w_rest = _tail_pattern(m - 1, j)
    return ((1 << w) - 1,) + tuple(a | b << w for a, b in zip(head, rest)), w + w_rest


def _tail_seeds(n: int) -> int:
    """The most last seeds a block lays out on n strands: the largest
    j <= 3 whose full block, C(n, j) subsets, spans at most _BLOCK_BATCHES
    batches; level k lays out min(k, j).  With eight batches of 1024 bits
    that is 3 up to 37 strands, 2 up to 128 and 1 beyond.  The bound caps
    a batch's width, the time between deadline checks and the pattern
    cache, which the search fills only for j >= 2, so only up to 128
    strands: its m entries for m strands hold C(m, j) bits each, so the
    cache grows as m^4 for j = 2 and holds about 3.6 MB when full."""
    j = 3
    while math.comb(n, j) > _BLOCK_BATCHES * _BATCH_BITS:
        j -= 1
    return j


def _level_where(k: int) -> str:
    return f"during the seed-set search at level k={k} (omega >= {k})"


def _search_level(
    n: int,
    moves: list[tuple[int, int, int]],
    comps: Iterable[list[int]],
    k: int,
    j: int,
    deadline: Optional[float],
):
    """First size-k subset (lexicographic) of the n strands that covers
    every component (``comps`` lists each one's strands) and saturates to
    the full strand set.

    A batch takes consecutive (k-j)-prefixes until it holds _BATCH_BITS
    subsets; any 0 <= j <= k gives the same result.  A prefix ending
    before strand ``start`` owns one block of bits, one per j-subset of the
    m = n - start strands after it in lexicographic order: its own strands
    get the block's ones, and the strands after it the pattern
    _tail_pattern(m, j) shifted to the block.  With j = 1 the pattern is
    1 << s for strand start + s, set directly rather than cached; with
    j = 0 a prefix is one bit.  The deadline is checked before each batch.

    Returns (combination or None, subsets examined), where the subsets
    examined are those covering every component, up to and including the
    witness.
    """
    prefixes = itertools.combinations(range(n - j), k - j)
    where = _level_where(k)
    examined = 0
    while True:
        check_deadline(deadline, where)
        x = [0] * n
        layout = []  # (first bit, prefix, first strand after it)
        width = 0
        for prefix in prefixes:
            start = prefix[-1] + 1 if prefix else 0
            if j >= 2:
                pattern, w = _tail_pattern(n - start, j)
                for s, bits in enumerate(pattern, start):
                    x[s] |= bits << width
            elif j:
                w = n - start
                for s in range(start, n):
                    x[s] |= 1 << (width + s - start)
            else:
                w = 1
            ones = ((1 << w) - 1) << width
            for p in prefix:
                x[p] |= ones
            layout.append((width, prefix, start))
            width += w
            if width >= _BATCH_BITS:
                break
        if not width:
            return None, examined
        valid = -1
        for strands in comps:
            colored = 0
            for s in strands:
                colored |= x[s]
            valid &= colored
        _saturate_batch(moves, x)
        full = valid
        for bits in x:
            full &= bits
        if not full:
            examined += valid.bit_count()
            continue
        bit = (full & -full).bit_length() - 1
        examined += (valid & ((2 << bit) - 1)).bit_count()
        first, prefix, start = next(e for e in reversed(layout) if e[0] <= bit)
        offset = bit - first
        if j >= 2:
            pattern = _tail_pattern(n - start, j)[0]
            tail = tuple([s for s, bits in enumerate(pattern, start) if bits >> offset & 1])
        else:
            tail = (start + offset,) if j else ()
        return prefix + tail, examined


def apply_coloring_moves(d: GaussDiagram, seeds: Iterable[int]) -> ColoringSequence:
    """Saturate the coloring moves from the given seed strands.

    The colored set is the unique closure regardless of firing order; the
    returned sequence is one witness, and it colors every strand exactly
    when it has an entry per strand.  Arrowheads are scanned in head order.
    """
    table = strand_table(d)
    n = table.n_strands
    seed_list = sorted(set(int(s) for s in seeds))
    if not seed_list:
        raise ValueError("need at least one seed strand")
    if seed_list[0] < 0 or seed_list[-1] >= n:
        raise ValueError(f"seed strand out of range 0..{n - 1}")

    colored = [False] * n
    entries = [SequenceEntry(s, None) for s in seed_list]
    for s in seed_list:
        colored[s] = True

    while True:
        fired = False
        for inc in table.incidences:
            if not colored[inc.tail_strand]:
                continue
            b = colored[inc.before]
            if b == colored[inc.after]:
                continue
            dst = inc.after if b else inc.before
            colored[dst] = True
            entries.append(SequenceEntry(dst, inc.chord_id))
            fired = True
        if not fired:
            break
    return ColoringSequence(tuple(entries), len(seed_list))


def sequence_relations(d: GaussDiagram, seq: ColoringSequence) -> tuple[list, list]:
    """A coloring sequence as a presentation on its seeds: its moves and the
    arrowhead relations no move used, each as (strand, source, tail strand,
    sign) with value[strand] = value[source] >^sign value[tail].  A move
    that colors ``before`` solves a_after = a_before >^e b for a_before."""
    table = strand_table(d)
    by_chord = {i.chord_id: i for i in table.incidences}
    moves = []
    for e in seq.entries[seq.k :]:
        inc = by_chord[e.via]
        if e.strand == inc.after:
            moves.append((inc.after, inc.before, inc.tail_strand, inc.sign))
        else:
            moves.append((inc.before, inc.after, inc.tail_strand, -inc.sign))
    used = {e.via for e in seq.entries}
    unused = [
        (i.after, i.before, i.tail_strand, i.sign) for i in table.incidences if i.chord_id not in used
    ]
    return moves, unused


def saturated_strands(d: GaussDiagram, seeds: Iterable[int]) -> frozenset:
    """Colored strand set after saturation, via the search's closure on a
    batch of one subset."""
    table = strand_table(d)
    n = table.n_strands
    x = [0] * n
    for s in map(int, seeds):
        if not 0 <= s < n:
            raise ValueError(f"seed strand out of range 0..{n - 1}")
        x[s] = 1
    _saturate_batch(_moves(table), x)
    return frozenset(s for s in range(n) if x[s])


def reduced_seed_set(
    d: GaussDiagram, deadline: Optional[float] = None, seeds: Optional[Iterable[int]] = None
) -> tuple[int, ...]:
    """A seed set that colors every strand, found by local search instead
    of ``wirtinger_number``'s exhaustive one, so it has omega seeds or more.
    It starts from ``seeds``, which must color every strand, or else from
    the tail-bearing strands and a strand of each component: every head's
    tail is then colored, so each component's color spreads around it.  It
    moves to the first smaller set that still colors every strand, tested
    a batch at a time: less one seed, fewest tails first, else less two
    seeds plus one other strand.  Raises SearchTimeoutError at ``deadline``."""
    table = strand_table(d)
    n = table.n_strands
    moves = _moves(table)
    if seeds is None:
        firsts = {s.component: s.id for s in reversed(table.strands)}
        seeds = [s.id for s in table.strands if s.tails] + list(firsts.values())
    seeds = sorted(set(seeds), key=lambda s: (len(table.strands[s].tails), s))
    while True:
        others = [s for s in range(n) if s not in seeds]
        drops = [((s,), ()) for s in seeds]
        swaps = ((pair, (s,)) for pair in itertools.combinations(seeds, 2) for s in others)
        chunks = iter(lambda: list(itertools.islice(swaps, _BATCH_BITS)), [])
        for batch in itertools.chain([drops], chunks):
            check_deadline(deadline, "while reducing a seed set")
            x = [0] * n
            for s in seeds:
                x[s] = (1 << len(batch)) - 1
            for bit, (dropped, added) in enumerate(batch):
                for s in dropped:
                    x[s] ^= 1 << bit
                for s in added:
                    x[s] |= 1 << bit
            _saturate_batch(moves, x)
            if full := functools.reduce(operator.and_, x):
                dropped, added = batch[(full & -full).bit_length() - 1]
                seeds = [s for s in seeds if s not in dropped] + list(added)
                break
        else:
            return tuple(sorted(seeds))


def wirtinger_number(
    d: GaussDiagram,
    max_k: Optional[int] = None,
    deadline: Optional[float] = None,
    *,
    memo: Optional[dict] = None,
) -> WirtingerResult:
    """Least k with a size-k seed set whose saturation colors every strand.

    Seed subsets are enumerated lexicographically for each k starting at the
    component count, so the witness is the lexicographically least seed set
    of minimal size.  Raises SearchExhaustedError if max_k is hit without
    success and SearchTimeoutError once ``time.perf_counter()`` reaches
    ``deadline``, checked before each batch of subsets.

    ``memo`` is a dict the caller keeps for a run of diagrams: each search
    that succeeds is stored under the strand structure it read, the
    (tail, before, after) strands of each arrowhead in head order and the
    component sizes, which no crossing sign or chord label enters.  A
    diagram of a stored structure gets the stored result, its counters
    included, with each move's chord id replaced by that of the arrowhead
    at the same place in head order: what a fresh search returns.  A hit
    checks the deadline once; one whose omega exceeds ``max_k`` searches.
    """
    table = strand_table(d)
    n = table.n_strands
    moves = _moves(table)
    comps: dict[int, list[int]] = {}
    for s in table.strands:
        comps.setdefault(s.component, []).append(s.id)
    n_comps = d.n_components
    if memo is not None:
        # strand ids run component by component, so the sizes fix comps
        key = (tuple(moves), tuple(map(len, comps.values())))
        if (hit := memo.get(key)) is not None and (max_k is None or hit[0].omega <= max_k):
            check_deadline(deadline, _level_where(n_comps))
            return _relabel(*hit, table.incidences)
    k_hi = n if max_k is None else min(max_k, n)
    tail_seeds = _tail_seeds(n)

    examined = 0
    for k in range(n_comps, k_hi + 1):
        comb, ex = _search_level(n, moves, comps.values(), k, min(k, tail_seeds), deadline)
        examined += ex
        if comb is not None:
            seq = apply_coloring_moves(d, comb)
            assert len(seq.entries) == n
            result = WirtingerResult(
                omega=k,
                seed_set=tuple(comb),
                sequence=seq,
                stats=SearchStats(examined, len(seq.entries) - seq.k),
            )
            if memo is not None:
                memo[key] = (result, tuple([inc.chord_id for inc in table.incidences]))
            return result
    raise SearchExhaustedError(
        f"no seed set of size <= {k_hi} colors the diagram ({examined} subsets examined)"
    )


def _relabel(
    result: WirtingerResult, found_on: tuple[int, ...], incidences: tuple[HeadIncidence, ...]
) -> WirtingerResult:
    """``result``, found on arrowheads of the chord ids ``found_on`` in head
    order, for a diagram whose arrowheads ``incidences`` join the same
    strands in the same head order: each move's chord id becomes that of
    the arrowhead at its index, and with the same ids ``result`` is it."""
    ids = tuple([inc.chord_id for inc in incidences])
    if ids == found_on:
        return result
    new_id = dict(zip(found_on, ids))
    seq = result.sequence
    k = seq.k
    entries = seq.entries[:k] + tuple(
        [_new(SequenceEntry, (e.strand, new_id[e.via])) for e in seq.entries[k:]]
    )
    return _new(
        WirtingerResult, (result.omega, result.seed_set, _new(ColoringSequence, (entries, k)), result.stats)
    )


def _move_source(inc: HeadIncidence, colors: list, target: int) -> Optional[int]:
    """The strand whose color a move legal at ``inc`` copies onto ``target``,
    or None when no such move is legal."""
    if colors[inc.tail_strand] is None:
        return None
    b = colors[inc.before] is not None
    if b == (colors[inc.after] is not None):
        return None
    src, dst = (inc.before, inc.after) if b else (inc.after, inc.before)
    return src if dst == target else None


def _replay(d: GaussDiagram, seq: ColoringSequence) -> tuple[VerifyResult, list]:
    """Walk a sequence once: the verdict of verify_coloring_sequence, and
    the color of every strand reached (seed j gets color j, a later entry
    the color of its move's source; None where the walk stopped)."""
    table = strand_table(d)
    n = table.n_strands
    colors: list[Optional[int]] = [None] * n
    if not 1 <= seq.k <= len(seq.entries) or len(seq.entries) != n:
        return VerifyResult(False, None), colors
    by_chord = {i.chord_id: i for i in table.incidences}
    for idx, e in enumerate(seq.entries):
        if not (isinstance(e, SequenceEntry) and isinstance(e.strand, int) and 0 <= e.strand < n):
            return VerifyResult(False, idx), colors
        if colors[e.strand] is not None:
            return VerifyResult(False, idx), colors
        if idx < seq.k:
            colors[e.strand] = idx + 1
            continue
        if e.via is None:
            candidates = table.incidences
        elif isinstance(e.via, int) and e.via in by_chord:
            candidates = [by_chord[e.via]]
        else:
            candidates = []
        sources = (_move_source(inc, colors, e.strand) for inc in candidates)
        src = next((s for s in sources if s is not None), None)
        if src is None:
            return VerifyResult(False, idx), colors
        colors[e.strand] = colors[src]
    return VerifyResult(True, None), colors


def verify_coloring_sequence(d: GaussDiagram, seq: ColoringSequence) -> VerifyResult:
    """Check that a sequence is a valid certificate: every strand appears
    exactly once, the first k entries are the seeds, and each later entry is
    justified by a move legal at its stage.  An entry that is no
    SequenceEntry, or whose strand or chord id is no int, fails there."""
    return _replay(d, seq)[0]


def _cyclic_runs(positions: set, m: int) -> Optional[list[int]]:
    """Positions as one contiguous cyclic run on Z/m, or None."""
    if len(positions) == m:
        return list(range(m))
    for start in positions:
        if (start - 1) % m not in positions:
            run = [start]
            p = (start + 1) % m
            while p in positions:
                run.append(p)
                p = (p + 1) % m
            return run if len(run) == len(positions) else None
    return None  # every position has a predecessor but the set is proper: split


def verify_height_certificate(d: GaussDiagram, seq: ColoringSequence) -> VerifyResult:
    """Check the height profile of a verified sequence: along each color
    class, ordered by strand adjacency, the heights 1/(j+1) have a unique
    local maximum, located at the seed.  Raises CutSplitError when the
    diagram is cut-split (the profile is not meaningful there)."""
    witness = cut_split_witness(d)
    if witness is not None:
        raise CutSplitError(f"diagram is cut-split at {witness.kind} {witness.index}")
    base, colors = _replay(d, seq)
    if not base.ok:
        return base
    table = strand_table(d)
    heights = seq.heights()
    seeds = set(seq.seeds)

    comp_strands: dict[int, list[int]] = {}
    for s in table.strands:
        comp_strands.setdefault(s.component, []).append(s.id)

    for color in range(1, seq.k + 1):
        members = [s for s in range(table.n_strands) if colors[s] == color]
        comps = {table.strands[s].component for s in members}
        if len(comps) != 1:
            return VerifyResult(False, None)
        cyc = comp_strands[comps.pop()]
        m = len(cyc)
        index_of = {sid: i for i, sid in enumerate(cyc)}
        run = _cyclic_runs({index_of[s] for s in members}, m)
        if run is None:
            return VerifyResult(False, None)
        arc = [cyc[i] for i in run]
        hs = [heights[s] for s in arc]
        whole = len(arc) == m
        maxima = []
        for i in range(len(arc)):
            if whole:
                left, right = hs[(i - 1) % m], hs[(i + 1) % m]
                is_max = m == 1 or (hs[i] > left and hs[i] > right)
            else:
                is_max = (i == 0 or hs[i] > hs[i - 1]) and (
                    i == len(arc) - 1 or hs[i] > hs[i + 1]
                )
            if is_max:
                maxima.append(arc[i])
        if len(maxima) != 1 or maxima[0] not in seeds:
            return VerifyResult(False, None)
    return VerifyResult(True, None)


class LowTailChord(NamedTuple):
    chord_id: int
    color: int
    whole_component: bool  # the chord's color class covers its component


class LowTailReport(NamedTuple):
    """Chords whose head separates same-colored strands while the tail
    strand's height is at most both head-side heights.

    For a knot such a chord can exist only when the sequence has one seed,
    and then it is unique; for a link the chord's color class must be a full
    component and carry no second such chord.  ``consistent`` records that
    the report obeys the applicable case.
    """

    entries: tuple[LowTailChord, ...]
    knot: bool
    consistent: bool


def low_tail_chords(d: GaussDiagram, seq: ColoringSequence) -> LowTailReport:
    """Raises ValueError when ``seq`` fails verify_coloring_sequence."""
    verdict, colors = _replay(d, seq)
    if not verdict.ok:
        raise ValueError(f"coloring sequence fails verification at entry {verdict.failed_at}")
    table = strand_table(d)
    heights = seq.heights()
    comp_of = [s.component for s in table.strands]
    comp_sizes: dict[int, int] = {}
    for c in comp_of:
        comp_sizes[c] = comp_sizes.get(c, 0) + 1

    entries = []
    for inc in table.incidences:
        if colors[inc.before] != colors[inc.after]:
            continue
        h_tail = heights[inc.tail_strand]
        if h_tail <= min(heights[inc.before], heights[inc.after]):
            color = colors[inc.before]
            members = [s for s in range(table.n_strands) if colors[s] == color]
            whole = len(members) == comp_sizes[comp_of[inc.before]]
            entries.append(LowTailChord(inc.chord_id, color, whole))

    knot = d.n_components == 1
    if knot:
        consistent = len(entries) <= 1 and (not entries or seq.k == 1)
    else:
        per_color: dict[int, int] = {}
        for e in entries:
            per_color[e.color] = per_color.get(e.color, 0) + 1
        consistent = all(e.whole_component for e in entries) and all(
            n == 1 for n in per_color.values()
        )
    return LowTailReport(tuple(entries), knot, consistent)
