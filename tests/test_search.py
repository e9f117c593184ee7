import functools
import itertools
import math
import random
import re
import time
import types

import numpy as np
import pytest

from vbridge import errors, search
from vbridge.errors import CutSplitError, SearchExhaustedError, SearchTimeoutError
from vbridge.gauss import bridge_count, ensure_tail_per_component, parse_gauss_code, strand_table
from vbridge.quandle import count_colorings, dihedral_quandle
from vbridge.search import (
    ColoringSequence,
    SequenceEntry,
    apply_coloring_moves,
    low_tail_chords,
    reduced_seed_set,
    saturated_strands,
    verify_coloring_sequence,
    verify_height_certificate,
    wirtinger_number,
)
from util import (
    brute_force_omega,
    enumerate_knot_codes,
    head_order_saturate_batch,
    numpy_search,
    random_diagram,
    random_one_overbridge_code,
    shuffled_closure,
)


class TestApplyColoringMoves:
    def test_six_chord_single_seed_colors_all(self, d6):
        seq = apply_coloring_moves(d6, {0})
        assert len(seq.entries) == strand_table(d6).n_strands
        # propagation follows the code's head order
        assert seq.order == (0, 1, 2, 3, 4, 5)
        assert seq.k == 1

    def test_virtual_trefoil_single_move(self, dv):
        seq = apply_coloring_moves(dv, {0})
        assert len(seq.entries) == strand_table(dv).n_strands
        assert seq.entries[1] == SequenceEntry(1, 1)

    def test_trefoil_singletons_stall(self, d3):
        for seed in range(3):
            assert apply_coloring_moves(d3, {seed}).order == (seed,)

    def test_bad_seeds(self, d3):
        with pytest.raises(ValueError):
            apply_coloring_moves(d3, set())
        with pytest.raises(ValueError):
            apply_coloring_moves(d3, {9})

    def test_non_integral_seeds_are_rejected_not_truncated(self, d3):
        # int() would seed strands 0 and 1; numpy integers stay seeds
        for seeds in ([0.7, 1.9], [0, 1.0], ["1"]):
            with pytest.raises(ValueError, match="seed strands must be integers"):
                apply_coloring_moves(d3, seeds)
            with pytest.raises(ValueError, match="seed strands must be integers"):
                saturated_strands(d3, seeds)
            with pytest.raises(ValueError, match="seed strands must be integers"):
                count_colorings(d3, dihedral_quandle(3), seeds=seeds)
        assert apply_coloring_moves(d3, np.array([0, 1])) == apply_coloring_moves(d3, [0, 1])
        assert saturated_strands(d3, [np.int64(0), np.int64(1)]) == frozenset({0, 1, 2})

    def test_bool_seeds_are_rejected(self, d3):
        # operator.index(True) is 1, so True would seed strand 1
        for seeds in ([True], [0, False], (False,)):
            with pytest.raises(ValueError, match="seed strands must be integers"):
                apply_coloring_moves(d3, seeds)
            with pytest.raises(ValueError, match="seed strands must be integers"):
                saturated_strands(d3, seeds)
            with pytest.raises(ValueError, match="seed strands must be integers"):
                count_colorings(d3, dihedral_quandle(3), seeds=seeds)

    def test_colors_never_cross_components(self):
        d = parse_gauss_code("O1+U1+|O2+U2+")
        # strand 0 alone: strand 1 is the other component
        assert apply_coloring_moves(d, {0}).order == (0,)


class TestWirtingerNumber:
    def test_examples(self, d6, d3, dv):
        assert wirtinger_number(d6).omega == 1
        r = wirtinger_number(d3)
        assert r.omega == 2
        assert r.seed_set == (0, 1)
        assert wirtinger_number(dv).omega == 1

    def test_normalized_unlink(self):
        d = ensure_tail_per_component(parse_gauss_code(".|."))
        assert wirtinger_number(d).omega == 2

    def test_chordless_circle(self):
        assert wirtinger_number(parse_gauss_code(".")).omega == 1

    def test_exhausted(self, d3):
        with pytest.raises(SearchExhaustedError):
            wirtinger_number(d3, max_k=1)

    def test_timeout(self, d3):
        with pytest.raises(SearchTimeoutError):
            wirtinger_number(d3, deadline=time.perf_counter())

    def test_matches_oracle_small(self):
        checked = 0
        for c in range(5):
            for code in enumerate_knot_codes(c):
                d = parse_gauss_code(code)
                result = wirtinger_number(d)
                omega, seeds = brute_force_omega(d)
                assert result.omega == omega, code
                assert result.seed_set == seeds, code
                checked += 1
        assert checked == 1 + 2 + 12 + 120 + 1680

    def test_sequence_always_verifies(self):
        rng = random.Random(31)
        for _ in range(60):
            d = ensure_tail_per_component(random_diagram(rng, max_chords=6))
            r = wirtinger_number(d)
            assert verify_coloring_sequence(d, r.sequence).ok


def _search_triple(d):
    r = wirtinger_number(d)
    return r.omega, r.seed_set, r.stats.subsets_examined


def _relabel(code, offset):
    return re.sub(r"([OU])(\d+)", lambda m: f"{m[1]}{int(m[2]) + offset}", code)


def _random_links(seed, count):
    """Seeded 2-3 component links of 20-32 chords, a tail on each component."""
    rng = random.Random(seed)
    links = []
    while len(links) < count:
        d = random_diagram(rng, max_chords=32, max_components=3, min_chords=20)
        if d.n_components >= 2:
            links.append(ensure_tail_per_component(d))
    return links


@functools.cache
def _oracle_links():
    """Seeded links with their numpy-oracle triples, shared by the batch sizes."""
    return [(d, numpy_search(d)) for d in _random_links(31, 40)]


class TestNumpySearchOracle:
    """The bitmask search reproduces the former numpy backend exactly:
    same Wirtinger number, same witness, same subsets examined."""

    def test_every_small_knot(self):
        checked = 0
        for n_chords in range(6):
            for code in enumerate_knot_codes(n_chords):
                d = parse_gauss_code(code)
                assert _search_triple(d) == numpy_search(d), code
                checked += 1
        assert checked == 32055

    def test_random_links(self):
        for d in _random_links(23, 20):
            assert _search_triple(d) == numpy_search(d)

    def test_more_than_62_strands(self):
        # 62 strands was the width limit of the former int64 jit masks
        rng = random.Random(62)
        for _ in range(3):
            d = parse_gauss_code(random_one_overbridge_code(rng, 90, min_chords=63))
            assert strand_table(d).n_strands > 62
            assert _search_triple(d) == numpy_search(d)
        # two one-overbridge components joined by one chord
        for _ in range(3):
            first = random_one_overbridge_code(rng, 40, min_chords=32)
            second = _relabel(random_one_overbridge_code(rng, 40, min_chords=32), 40)
            d = parse_gauss_code(f"O99+{first}|U99+{second}")
            assert strand_table(d).n_strands > 62
            assert _search_triple(d) == numpy_search(d)

    # small batches make blocks straddle batch boundaries and change how
    # many last seeds a block lays out; the oracle has no batches
    @pytest.mark.parametrize("batch_bits", [7, 64, 1024])
    def test_links_at_batch_size(self, monkeypatch, batch_bits):
        monkeypatch.setattr(search, "_BATCH_BITS", batch_bits)
        omegas = set()
        for d, expected in _oracle_links():
            assert _search_triple(d) == expected
            omegas.add(expected[0])
        assert max(omegas) >= 4

    @pytest.mark.parametrize("batch_bits", [7, 64])
    def test_knots_up_to_four_chords_at_batch_size(self, monkeypatch, batch_bits):
        monkeypatch.setattr(search, "_BATCH_BITS", batch_bits)
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                d = parse_gauss_code(code)
                assert _search_triple(d) == numpy_search(d), code


class TestTailPatterns:
    def test_tail_patterns_match_combinations(self):
        for m in range(13):
            for j in range(1, 5):
                subsets = list(itertools.combinations(range(m), j))
                pattern = tuple(
                    sum(1 << i for i, subset in enumerate(subsets) if s in subset)
                    for s in range(m)
                )
                assert search._tail_pattern(m, j) == (pattern, len(subsets))


class TestBlockWidthBound:
    def test_tail_seeds_bound_the_block(self):
        cap = search._BLOCK_BATCHES * search._BATCH_BITS
        for n in range(1, 5000):
            top = search._tail_seeds(n)
            # level k lays out min(k, top) last seeds: the most that fit
            for k in range(1, min(n, 5) + 1):
                fits = [j for j in range(min(k, 3) + 1) if math.comb(n, j) <= cap]
                assert min(k, top) == max(fits)
        assert search._tail_seeds(cap) == 1 and search._tail_seeds(cap + 1) == 0

    def test_thousand_chord_knot_at_level_one(self):
        d = parse_gauss_code(random_one_overbridge_code(random.Random(1000), 1100, min_chords=1001))
        assert strand_table(d).n_strands > 1000
        assert wirtinger_number(d).omega == 1

    def test_wide_link_stops_at_its_deadline(self, monkeypatch):
        rng = random.Random(150)
        while True:
            d = random_diagram(rng, max_chords=160, max_components=3, min_chords=150)
            if d.n_components >= 2:
                break
        d = ensure_tail_per_component(d)
        assert strand_table(d).n_strands >= 150
        widths = []
        saturate = search._saturate_batch

        def recording(moves, x):
            widths.append(max(bits.bit_length() for bits in x))
            saturate(moves, x)

        monkeypatch.setattr(search, "_saturate_batch", recording)
        cached = search._tail_pattern.cache_info().currsize
        start = time.perf_counter()
        with pytest.raises(SearchTimeoutError, match="seed-set search"):
            wirtinger_number(d, deadline=start + 0.05)
        assert time.perf_counter() - start < 1.0
        # too many strands for two last seeds: one per block, no pattern cached
        assert widths and max(widths) <= search._BATCH_BITS + strand_table(d).n_strands
        assert search._tail_pattern.cache_info().currsize == cached

    def test_three_last_seeds_up_to_37_strands(self):
        # 31-37 strands took two last seeds under a four-batch block bound
        rng = random.Random(37)
        checked = 0
        while checked < 8:
            d = random_diagram(rng, max_chords=37, max_components=3, min_chords=28)
            if d.n_components < 2:
                continue
            d = ensure_tail_per_component(d)
            if not 31 <= strand_table(d).n_strands <= 37:
                continue
            assert search._tail_seeds(strand_table(d).n_strands) == 3
            assert _search_triple(d) == numpy_search(d)
            checked += 1

    def test_two_last_seeds_match_one_near_100_strands(self):
        # 92-128 strands took one last seed under a four-batch block bound;
        # random links fail levels 2 and 3 (every subset examined), links
        # of one-overbridge components joined in a chain pass one
        rng = random.Random(100)
        links = []
        while len(links) < 3:
            d = random_diagram(rng, max_chords=105, max_components=3, min_chords=95)
            if d.n_components >= 2:
                links.append(ensure_tail_per_component(d))
        for n_comps in (2, 3):
            size = 100 // n_comps
            chained = []
            for c in range(n_comps):
                part = _relabel(random_one_overbridge_code(rng, size + 3, min_chords=size - 2), 60 * c)
                joins = (f"U{499 + c}+" if c else "", f"O{500 + c}+" if c < n_comps - 1 else "")
                chained.append(joins[0] + part + joins[1])
            links.append(ensure_tail_per_component(parse_gauss_code("|".join(chained))))
        witnesses = 0
        for d in links:
            table = strand_table(d)
            n = table.n_strands
            assert 92 <= n <= 128 and search._tail_seeds(n) == 2
            moves = search._moves(table)
            comps = {}
            for s in table.strands:
                comps.setdefault(s.component, []).append(s.id)
            for k in range(d.n_components, 4):
                level = search._search_level(n, moves, comps.values(), k, 2, None)
                assert level == search._search_level(n, moves, comps.values(), k, 1, None)
                witnesses += level[0] is not None
        assert witnesses >= 2

    def test_pattern_cache_stays_bounded(self):
        search._tail_pattern.cache_clear()
        links = _random_links(32, 40)
        for d in links:
            wirtinger_number(d)
        # one entry per strand count and number of last seeds, at most
        n_max = max(strand_table(d).n_strands for d in links)
        assert search._tail_pattern.cache_info().currsize <= 4 * (n_max + 1)


# a two-component link of 27 strands with omega 3 whose third level
# examines 1199 subsets before its witness
MULTI_BATCH_LINK = (
    "U8-U6+O6+U13-U5+U7-O19+O21+U9-O17+O4+O12+O23-O27+O14-U26-U24+U18-O3-O10-U19+"
    "U11-O2-O24+O8-O18-U4+U15+O7-|O9-O15+O1+U22-U10-O26-O16+O20+O22-O11-U16+U25-"
    "U3-U23-O5+O25-U27+U21+U17+U12+U20+O13-U1+U14-U2-"
)


@pytest.fixture
def level_batches(monkeypatch):
    """Batches of 256 bits, so that the link's third level spans several;
    the returned list gets the level of every batch saturated."""
    monkeypatch.setattr(search, "_BATCH_BITS", 256)
    levels = []
    search_level = search._search_level
    saturate = search._saturate_batch

    def recording_level(n, moves, comps, k, j, deadline):
        levels.append(k)
        return search_level(n, moves, comps, k, j, deadline)

    batches = []

    def recording_saturate(moves, x):
        batches.append(levels[-1])
        saturate(moves, x)

    monkeypatch.setattr(search, "_search_level", recording_level)
    monkeypatch.setattr(search, "_saturate_batch", recording_saturate)
    return batches


class TestBatches:
    def test_witness_level_spans_batches(self, level_batches):
        d = parse_gauss_code(MULTI_BATCH_LINK)
        omega, _, examined = triple = _search_triple(d)
        assert triple == numpy_search(d)
        # every covering pair fails first, so the rest is the witness level
        comps = [s.component for s in strand_table(d).strands]
        pairs = sum(1 for a, b in itertools.combinations(comps, 2) if a != b)
        assert omega == 3 and examined - pairs > 4 * 256
        assert level_batches.count(3) > 4

    def test_timeout_on_a_link(self, monkeypatch, level_batches):
        # a clock that ticks once per deadline check: a deadline at the last
        # check of the full search stops it before the batch holding the
        # witness, after the witness level's earlier batches
        ticks = itertools.count()
        clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
        monkeypatch.setattr(errors, "time", clock)
        d = parse_gauss_code(MULTI_BATCH_LINK)
        wirtinger_number(d, deadline=math.inf)
        last_check = next(ticks) - 1
        witness_level = level_batches.count(3)
        ticks = itertools.count()
        level_batches.clear()
        with pytest.raises(SearchTimeoutError, match=r"seed-set search at level k=3 \(omega >= 3\)"):
            wirtinger_number(d, deadline=last_check)
        assert 1 <= level_batches.count(3) == witness_level - 1


class TestConfluence:
    def test_randomized_scan_orders_agree(self):
        rng = random.Random(17)
        for _ in range(80):
            d = random_diagram(rng, max_chords=8)
            table = strand_table(d)
            seeds = {rng.randrange(table.n_strands) for _ in range(rng.randint(1, 3))}
            reference = saturated_strands(d, seeds)
            assert frozenset(apply_coloring_moves(d, seeds).order) == reference
            for trial in range(5):
                assert shuffled_closure(d, seeds, random.Random(trial)) == reference

    def test_alternating_sweeps_match_head_order(self):
        # batches of random seed sets, as the search and the seed reduction
        # saturate them: both sweeps reach the same closure, bit for bit
        rng = random.Random(43)
        for d in _random_links(43, 20):
            n = strand_table(d).n_strands
            moves = search._moves(strand_table(d))
            for _ in range(5):
                x = [0] * n
                for bit in range(rng.randint(1, 300)):
                    for s in rng.sample(range(n), rng.randint(1, 4)):
                        x[s] |= 1 << bit
                expected = list(x)
                head_order_saturate_batch(moves, expected)
                search._saturate_batch(moves, x)
                assert x == expected

    def test_saturated_strands_rejects_bad_seeds(self, d3):
        for seed in (-1, 3):
            with pytest.raises(ValueError):
                saturated_strands(d3, {seed})

    def test_overbridge_seeds_color_everything(self):
        rng = random.Random(41)
        for _ in range(100):
            d = ensure_tail_per_component(random_diagram(rng, max_chords=7))
            table = strand_table(d)
            seeds = [s.id for s in table.strands if s.tails]
            assert len(saturated_strands(d, seeds)) == table.n_strands
            assert wirtinger_number(d).omega <= bridge_count(d)


class TestReducedSeedSet:
    """The local search's seeds color every strand, number omega or more,
    and on small diagrams number exactly omega."""

    @staticmethod
    def _check(d, seeds=None):
        reduced = reduced_seed_set(d, seeds=seeds)
        assert reduced == tuple(sorted(set(reduced))), d
        assert saturated_strands(d, reduced) == frozenset(range(strand_table(d).n_strands)), d
        return len(reduced) - wirtinger_number(d).omega

    def test_every_knot_up_to_four_chords_reaches_omega(self):
        codes = [code for n in range(5) for code in enumerate_knot_codes(n)]
        assert len(codes) > 1800
        assert all(self._check(parse_gauss_code(code)) == 0 for code in codes)

    def test_random_diagrams(self):
        # links included: a component bearing no tail starts with a seed
        rng = random.Random(2501)
        excess = []
        for _ in range(300):
            d = random_diagram(rng, max_chords=12, max_components=3)
            excess.append(self._check(d))
            excess.append(self._check(d, seeds=range(strand_table(d).n_strands)))
        assert min(excess) == 0 and excess.count(0) > 550

    def test_chordless_components(self):
        for code, seeds in ((".", (0,)), (".|.", (0, 1)), ("O1+U1+|.", (0, 1))):
            assert reduced_seed_set(parse_gauss_code(code)) == seeds, code

    def test_stops_at_its_deadline(self, d6):
        with pytest.raises(SearchTimeoutError, match="reducing a seed set"):
            reduced_seed_set(d6, deadline=time.perf_counter() - 1.0)


class TestVerifySequence:
    def test_seeds_only(self, dv):
        seq = ColoringSequence((SequenceEntry(0, None), SequenceEntry(1, None)), k=2)
        assert verify_coloring_sequence(dv, seq).ok

    def test_move_before_tail_colored(self, d3):
        # chord 3's tail strand is 1, not colored at stage 1
        seq = ColoringSequence(
            (SequenceEntry(0, None), SequenceEntry(1, 3), SequenceEntry(2, 1)), k=1
        )
        result = verify_coloring_sequence(d3, seq)
        assert not result.ok
        assert result.failed_at == 1

    def test_missing_strand(self, d3):
        seq = ColoringSequence((SequenceEntry(0, None), SequenceEntry(1, None)), k=2)
        assert not verify_coloring_sequence(d3, seq).ok

    def test_unrecorded_via_is_searched(self, d6):
        seq = apply_coloring_moves(d6, {0})
        stripped = ColoringSequence(
            tuple(SequenceEntry(e.strand, None) for e in seq.entries), seq.k
        )
        assert verify_coloring_sequence(d6, stripped).ok

    @pytest.mark.parametrize(
        "index, entry",
        [
            (0, (0, None)),
            (2, (2, 1)),
            (0, SequenceEntry("0", None)),
            (2, SequenceEntry("2", 1)),
            (2, SequenceEntry(2, [1])),
            (1, SequenceEntry(True, None)),
            (2, SequenceEntry(2, True)),
        ],
        ids=["tuple-seed", "tuple-move", "str-seed", "str-move", "list-via", "bool-seed", "bool-via"],
    )
    def test_malformed_entry_fails_at_its_index(self, d3, index, entry):
        # the trefoil's sequence is seeds 0, 1 and strand 2 via chord 1
        seq = wirtinger_number(d3).sequence
        assert seq.entries[2] == SequenceEntry(2, 1)
        entries = list(seq.entries)
        entries[index] = entry
        assert verify_coloring_sequence(d3, seq._replace(entries=tuple(entries))) == (False, index)


class TestSequenceJson:
    def test_roundtrip(self, d6, d3):
        for d in (d6, d3):
            seq = wirtinger_number(d).sequence
            assert ColoringSequence.from_json_dict(seq.to_json_dict()) == seq

    def test_missing_key_rejected(self, d3):
        data = wirtinger_number(d3).sequence.to_json_dict()
        for key in data:
            with pytest.raises(ValueError):
                ColoringSequence.from_json_dict({k: v for k, v in data.items() if k != key})

    def test_no_object_rejected(self):
        for data in (None, [], "k", 3):
            with pytest.raises(ValueError):
                ColoringSequence.from_json_dict(data)

    def test_lengths_must_agree(self):
        # zip would drop the unmatched entry
        for order, via in (([0, 1, 2], [None, None]), ([0, 1], [None, None, 1])):
            with pytest.raises(ValueError):
                ColoringSequence.from_json_dict({"k": 2, "order": order, "via": via})

    def test_mistyped_values_rejected(self):
        good = {"k": 1, "order": [0, 1], "via": [None, 1]}
        assert ColoringSequence.from_json_dict(good).order == (0, 1)
        for key, value in (
            ("k", "1"),
            ("k", None),
            ("k", 1.0),
            ("order", [0, "1"]),
            ("order", [0, 1.5]),
            ("order", [0, None]),
            ("order", [0, True]),
            ("order", "01"),
            ("via", [None, "1"]),
            ("via", [None, [1]]),
            ("via", 7),
        ):
            with pytest.raises(ValueError):
                ColoringSequence.from_json_dict({**good, key: value})


class TestHeightCertificate:
    def test_examples(self, d6, d3):
        for d in (d6, d3):
            r = wirtinger_number(d)
            assert verify_height_certificate(d, r.sequence).ok

    def test_cut_split_rejected(self):
        kink = parse_gauss_code("O1+U1+")
        seq = apply_coloring_moves(kink, {0})
        with pytest.raises(CutSplitError):
            verify_height_certificate(kink, seq)

    def test_random_non_cut_split(self):
        rng = random.Random(53)
        done = 0
        while done < 40:
            d = random_diagram(rng, max_chords=7)
            from vbridge.gauss import is_cut_split

            if is_cut_split(d):
                continue
            r = wirtinger_number(d)
            assert verify_height_certificate(d, r.sequence).ok
            done += 1


class TestLowTailChords:
    def test_trefoil_empty(self, d3):
        r = wirtinger_number(d3)
        report = low_tail_chords(d3, r.sequence)
        assert report.entries == ()
        assert report.consistent

    def test_six_chord_empty(self, d6):
        # the last-colored strand of this diagram carries no arrowtail, so
        # no chord can satisfy the height condition even though omega is 1
        r = wirtinger_number(d6)
        report = low_tail_chords(d6, r.sequence)
        assert report.entries == ()
        assert report.consistent

    def test_witness_on_tail_bearing_last_strand(self, dl):
        r = wirtinger_number(dl)
        assert r.omega == 1
        report = low_tail_chords(dl, r.sequence)
        assert len(report.entries) == 1
        assert report.entries[0].chord_id == 3
        assert report.consistent

    def test_rejects_sequences_that_fail_verification(self, d3):
        seed = SequenceEntry(0, None)
        illegal = [
            (SequenceEntry(1, 2), SequenceEntry(2, 1)),  # chord 2 cannot color strand 1 yet
            (SequenceEntry(1, 9), SequenceEntry(2, 1)),  # no chord 9
            (SequenceEntry(1, None), SequenceEntry(2, None)),  # no legal move at all
        ]
        for rest in illegal:
            seq = ColoringSequence((seed, *rest), k=1)
            assert verify_coloring_sequence(d3, seq).failed_at == 1
            with pytest.raises(ValueError, match="entry 1"):
                low_tail_chords(d3, seq)

    def test_random_reports_consistent(self):
        rng = random.Random(67)
        from vbridge.gauss import is_cut_split

        done = 0
        while done < 60:
            d = random_diagram(rng, max_chords=7)
            if is_cut_split(d):
                continue
            r = wirtinger_number(d)
            assert low_tail_chords(d, r.sequence).consistent
            done += 1


class TestTupleRecords:
    """Sequence entries and search statistics are named tuples."""

    def test_records_are_read_only_tuples(self, d6):
        result = wirtinger_number(d6)
        entry, stats = result.sequence.entries[0], result.stats
        assert type(entry) is SequenceEntry and entry == (entry.strand, None)
        assert stats == (stats.subsets_examined, stats.saturation_steps)
        assert stats._fields == ("subsets_examined", "saturation_steps")
        assert entry._replace(via=3) == SequenceEntry(entry.strand, 3)
        for record, name in ((entry, "via"), (stats, "subsets_examined")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
