import itertools
import random
import time

import pytest

import util
from vbridge.errors import NotAKnotError, SearchTimeoutError
from vbridge.gauss import HeadIncidence, ensure_tail_per_component, parse_gauss_code, strand_table
from vbridge.linkgroup import (
    AlexanderMatrix,
    IdealBoundResult,
    _canonical,
    _minor_determinants,
    _presentation,
    _primes_upto,
    _resultant,
    _resultant_filter,
    alexander_matrix,
    ideal_lower_bound,
    sequence_bound,
)
from vbridge.parity import _projected_seeds, gaussian_parity, parity_lower_bound, parity_projection
from vbridge.quandle import _rank_mod
from vbridge.search import (
    apply_coloring_moves,
    reduced_seed_set,
    verify_coloring_sequence,
    wirtinger_number,
)
from test_batch import FIGURE_EIGHT, TREFOIL, _connected_sum
from util import (
    LaurentPolynomial,
    alexander_core,
    core_ideal_lower_bound,
    core_parity_lower_bound,
    dense_alexander_core,
    elementary_ideal_generators,
    enumerate_knot_codes,
    full_matrix_ideal_lower_bound,
    full_matrix_properness_certificate,
    gcd_scan_properness_certificate,
    ideal_summary,
    integer_poly,
    laurent_alexander_matrix,
    laurent_matrix,
    minor_scan_ideal_lower_bound,
    one_strand_saturates,
    properness_certificate,
    random_diagram,
    random_knot,
    random_one_overbridge_code,
    row_sums_at_one,
    sylvester_resultant,
    with_signs,
)


class TestPresentation:
    """The strand table is the Wirtinger presentation: a generator per
    strand, a relation per head incidence."""

    def test_virtual_trefoil(self, dv):
        table = strand_table(dv)
        assert table.n_strands == 2
        assert table.incidences == (
            HeadIncidence(chord_id=1, before=0, after=1, tail_strand=0, sign=1),
            HeadIncidence(chord_id=2, before=1, after=0, tail_strand=0, sign=1),
        )

    def test_normalized_circle(self):
        d = ensure_tail_per_component(parse_gauss_code("."))
        table = strand_table(d)
        assert table.n_strands == 1
        [r] = table.incidences
        assert r.before == r.after == r.tail_strand == 0

    def test_one_relation_per_chord(self, d6):
        assert len(strand_table(d6).incidences) == 6


class TestAlexanderMatrix:
    def test_matches_the_laurent_arithmetic_builder(self):
        # the former builder, kept in tests/util.py, on every code up to 4
        # chords with every sign and on seeded random knots and links
        def diagrams():
            for n_chords in range(5):
                for code in enumerate_knot_codes(n_chords):
                    for signs in itertools.product("+-", repeat=n_chords):
                        yield parse_gauss_code(with_signs(code, signs))
            rng = random.Random(2003)
            for _ in range(300):
                yield random_knot(rng, max_chords=30)
            for _ in range(300):
                yield random_diagram(rng, max_chords=20, max_components=3)

        checked = 0
        for d in diagrams():
            assert laurent_matrix(alexander_matrix(d)) == laurent_alexander_matrix(d), d
            checked += 1
        assert checked > 27_000

    def test_virtual_trefoil_rows(self, dv):
        a = alexander_matrix(dv)
        # tail coincides with the incoming strand in row 0 and the outgoing
        # strand in row 1, so the Fox terms collapse
        assert a.rows[0] == ({0: 1}, {0: -1})
        assert a.rows[1] == ({1: -1}, {1: 1})

    def test_kink_row_collapses_to_zero(self):
        a = alexander_matrix(parse_gauss_code("O1+U1+"))
        assert a.rows == (({},),)

    def test_row_sums_vanish_at_one(self):
        rng = random.Random(5)
        for _ in range(60):
            a = alexander_matrix(random_knot(rng, max_chords=7))
            assert all(s == 0 for s in row_sums_at_one(a))

    def test_negative_sign_entries(self, d3):
        a = alexander_matrix(d3)
        # row 0: relation at chord 2, tail strand 2, sign -1
        assert a.rows[0] == ({-1: 1}, {0: -1}, {0: 1, -1: -1})


class TestElementaryIdeals:
    """The per-k generators of the minor-scan oracle in tests/util.py."""

    def test_trefoil_first_ideal(self, d3):
        a = laurent_matrix(alexander_matrix(d3))
        gens = elementary_ideal_generators(a, 1)
        assert [str(g) for g in gens] == ["1*t^2-1*t^1+1*t^0"]

    def test_trefoil_zeroth_ideal_vanishes(self, d3):
        a = laurent_matrix(alexander_matrix(d3))
        gens = elementary_ideal_generators(a, 0)
        assert [g.is_zero for g in gens] == [True]

    def test_trefoil_minors_at_minus_one(self, d3):
        minors = _minor_determinants(alexander_matrix(d3).rows, 2)
        assert len(minors) == 9
        assert all(abs(LaurentPolynomial(m).evaluate_unit(-1)) == 3 for m in minors)

    def test_virtual_trefoil_units(self, dv):
        a = laurent_matrix(alexander_matrix(dv))
        gens = elementary_ideal_generators(a, 1)
        assert gens == [LaurentPolynomial({0: 1})]

    def test_bad_index(self, d3):
        a = laurent_matrix(alexander_matrix(d3))
        with pytest.raises(ValueError):
            elementary_ideal_generators(a, -1)
        with pytest.raises(ValueError):
            elementary_ideal_generators(a, 3)


class TestPropernessCertificate:
    """The per-ideal witness scan of the minor-scan oracle."""

    def test_examples(self):
        t_plus_1 = LaurentPolynomial({1: 1, 0: 1})
        three = LaurentPolynomial({0: 3})
        assert properness_certificate([t_plus_1, three]) == (3, 2)
        assert properness_certificate([LaurentPolynomial({2: 1, 1: -1, 0: 1})]) == (3, 2)
        assert properness_certificate([LaurentPolynomial({0: 1})]) is None
        # -t^3 is a unit; the zero generator alone would vanish everywhere
        assert properness_certificate([LaurentPolynomial(), LaurentPolynomial({3: -1})]) is None

    def test_bound_too_small(self):
        assert properness_certificate([LaurentPolynomial({0: 5})], prime_bound=3) is None
        assert properness_certificate([LaurentPolynomial({0: 5})], prime_bound=5) == (5, 1)

    def test_matches_full_scan(self):
        # the gcd mod p skips primes only; the smallest witness must not move
        rng = random.Random(11)

        def poly():
            lo = rng.randint(-2, 2)
            return LaurentPolynomial(
                {lo + i: rng.choice((0, 0, 1, -1, 2, -3, 6)) for i in range(rng.randint(1, 4))}
            )

        factor = LaurentPolynomial({1: 1, 0: -2})  # t - 2: a root mod every odd prime
        for case in range(600):
            gens = [poly() for _ in range(rng.randint(1, 3))]
            if case % 3 == 0:
                gens = [g * factor for g in gens]
            assert properness_certificate(gens) == full_matrix_properness_certificate(gens), gens


def _core_generator_sets(d, into):
    """Add every elementary-ideal generator set of d's Alexander core."""
    core = alexander_core(d)
    for k in range(core.n_cols):
        into.add(tuple(elementary_ideal_generators(core, k)))


def _random_generators(rng):
    def poly():
        lo = rng.randint(-2, 2)
        return LaurentPolynomial(
            {lo + i: rng.choice((0, 0, 1, -1, 2, -3, 5, 6)) for i in range(rng.randint(1, 4))}
        )

    gens = [poly() for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.4:  # a common root mod every prime above 5
        factor = LaurentPolynomial({1: 1, 0: rng.choice((-2, -3, 5))})
        gens = [g * factor for g in gens]
    return gens


class TestResultantFilteredScan:
    """The root scan of the gcd, skipping primes that do not divide the
    resultant, finds the witness of the former gcd scan (kept in
    tests/util.py) and of the scan over every (prime, unit) pair."""

    T = LaurentPolynomial({1: 1})

    def _assert_same_witness(self, gens):
        witness = properness_certificate(gens)
        assert witness == gcd_scan_properness_certificate(gens), gens
        assert witness == full_matrix_properness_certificate(gens), gens
        return witness

    def test_core_generators_of_small_codes_and_projections(self):
        sets = set()
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                for signs in itertools.product("+-", repeat=n_chords):
                    d = parse_gauss_code(with_signs(code, signs))
                    _core_generator_sets(d, sets)
                    _core_generator_sets(parity_projection(d), sets)
        witnesses = [self._assert_same_witness(list(gens)) for gens in sets]
        assert None in witnesses and any(w is not None for w in witnesses)

    def test_core_generators_of_random_knots(self):
        rng = random.Random(1901)
        sets = set()
        for _ in range(300):
            _core_generator_sets(random_knot(rng, max_chords=14, min_chords=5), sets)
        for gens in sets:
            self._assert_same_witness(list(gens))

    def test_hand_cases(self):
        t = self.T
        cases = [
            ([6, -3 * LaurentPolynomial({-1: 1})], (3, 1)),  # two constants: N = gcd = 3
            ([35, t + 2], (5, 3)),  # N = 35: 3 is skipped
            ([t * t + t + 1], (3, 1)),  # one generator: no filter
            ([t - 5], (2, 1)),
            # a common rational factor 2t + 1: N = 0, no prime may be skipped
            ([(2 * t + 1) * (t * t + t + 1), (2 * t + 1) * t], (3, 1)),
            ([0, t + 1, 0, 3], (3, 2)),  # zeros are passed over for N
            ([0, 0, 5], (5, 1)),
            ([0], (2, 1)),
            ([t - 2, t - 3], None),
        ]
        cases = [([g + LaurentPolynomial() for g in gens], w) for gens, w in cases]
        for gens, expected in cases:
            assert self._assert_same_witness(gens) == expected, gens
        assert _resultant_filter([integer_poly(g) for g in cases[0][0]]) == 3
        assert _resultant_filter([integer_poly(g) for g in cases[4][0]]) == 0

    def test_resultant_is_the_sylvester_determinant(self):
        rng = random.Random(1913)
        for _ in range(600):
            f, g = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(rng.randint(1, 9))]
                    for _ in range(2)]
            f[-1] = f[-1] or 2
            g[-1] = g[-1] or -1
            if len(f) == len(g) == 1:
                continue
            assert _resultant(f, g) == sylvester_resultant(f, g), (f, g)
        t = self.T
        assert _resultant_filter([integer_poly(2 * t + 1), integer_poly(t * t + 1)]) == 5

    def test_every_prime_with_a_common_root_divides_the_resultant(self):
        rng = random.Random(1907)
        primes = _primes_upto(97)
        filtered = 0
        for _ in range(300):
            gens = _random_generators(rng)
            n = _resultant_filter([integer_poly(g) for g in gens])
            for p in primes:
                if any(all(g.evaluate_mod(p, u) == 0 for g in gens) for u in range(1, p)):
                    assert n % p == 0, (gens, p, n)
            filtered += n != 0
            self._assert_same_witness(gens)
        assert filtered > 100  # most sets have a filter to check

    def test_the_filter_skips_the_gcd(self, monkeypatch):
        primes = []
        gcd_mod = util._gcd_mod

        def counted(gens, p):
            primes.append(p)
            return gcd_mod(gens, p)

        monkeypatch.setattr(util, "_gcd_mod", counted)
        t = self.T
        # Res(t - 2, t - 3) = +-1: after p = 2 shows no common root, no
        # prime divides it
        assert properness_certificate([t - 2, t - 3]) is None
        assert primes == [2]
        primes.clear()
        # Res(t + 1, t^2 - t + 1) = +-3
        assert properness_certificate([t + 1, t * t - t + 1]) == (3, 2)
        assert primes == [2, 3]


class TestIdealLowerBound:
    def test_trefoil(self, d3):
        # the core is 2 x 2 and vanishes at t = 2 over Z/3
        assert ideal_lower_bound(d3) == (2, (3, 2, 2))
        result = minor_scan_ideal_lower_bound(d3)
        assert result.bound == 2
        [cert1, cert2] = result.certificates
        assert cert1.k == 1 and cert1.qualifies
        assert cert1.witness == (3, 2)
        # 1x1 minors include units, so E_2 has no vanishing witness
        assert cert2.k == 2 and cert2.witness is None

    def test_virtual_trefoil(self, dv):
        assert ideal_lower_bound(dv) == (1, None)

    def test_chordless_circle(self):
        assert ideal_lower_bound(parse_gauss_code(".")) == (1, None)

    def test_links_rejected(self):
        with pytest.raises(NotAKnotError):
            ideal_lower_bound(parse_gauss_code(".|."))

    def test_bound_never_exceeds_omega(self):
        from vbridge.search import wirtinger_number

        rng = random.Random(11)
        for _ in range(40):
            d = random_knot(rng, max_chords=6)
            assert ideal_lower_bound(d).bound <= wirtinger_number(d).omega


def _census_knots():
    """Every knot code of at most 4 chords in two seeded sign variants, as
    the benchmark's census draws them."""
    rng = random.Random(2104)
    for n_chords in range(5):
        for code in enumerate_knot_codes(n_chords):
            for _ in range(2):
                signs = [rng.choice("+-") for _ in range(n_chords)]
                yield parse_gauss_code(with_signs(code, signs))


def _assert_witness_replays(d, result):
    """A witness (p, u, nullity) is the nullity of the full n x n Alexander
    matrix at t = u over Z/p, so the core's unit pivots stayed units."""
    if result.witness is None:
        return
    p, u, nullity = result.witness
    rows = [[g.evaluate_mod(p, u) for g in row] for row in laurent_matrix(alexander_matrix(d)).rows]
    assert strand_table(d).n_strands - _rank_mod(rows, p) == nullity, d
    assert nullity >= result.bound >= 2, d


def _assert_matches_the_core_bound(d):
    """Both bounds, with the search passed in and without, give the
    (bound, witness) of the former core bound kept in tests/util.py."""
    search = wirtinger_number(d)
    expected = core_ideal_lower_bound(d)
    assert ideal_lower_bound(d, result=search) == expected, d
    assert ideal_lower_bound(d) == expected, d
    expected = core_parity_lower_bound(d)
    assert parity_lower_bound(d, result=search) == expected, d
    assert parity_lower_bound(d) == expected, d


class TestNullityBound:
    """The largest nullity of the presentation on the search's seeds is the
    bound of the minor scan and, witness included, of the core bound, both
    kept in tests/util.py; each witness replays on the full matrix."""

    @staticmethod
    def _check(d):
        _assert_matches_the_core_bound(d)
        result = ideal_lower_bound(d)
        assert result.bound == minor_scan_ideal_lower_bound(d).bound, d
        _assert_witness_replays(d, result)
        projection = parity_projection(d)
        parity = parity_lower_bound(d)
        assert parity.bound == minor_scan_ideal_lower_bound(projection).bound, d
        _assert_witness_replays(projection, parity)
        return result

    def test_census_knots(self):
        bounds = [self._check(d).bound for d in _census_knots()]
        assert len(bounds) == 2 * (1 + 2 + 12 + 120 + 1680)
        assert bounds.count(2) > 100 and max(bounds) == 2

    def test_random_knots_match_the_minor_scan(self):
        rng = random.Random(2105)
        witnesses = 0
        for _ in range(150):
            d = random_knot(rng, max_chords=14, min_chords=5)
            witnesses += self._check(d).witness is not None
        assert witnesses > 30

    def test_random_knots_match_the_core_bound(self):
        rng = random.Random(2401)
        bounds = []
        for _ in range(200):
            d = random_knot(rng, max_chords=14, min_chords=3)
            _assert_matches_the_core_bound(d)
            bounds.append(ideal_lower_bound(d).bound)
        assert bounds.count(2) > 20

    def test_connected_sums_match_the_core_bound(self):
        for code in (TREFOIL, FIGURE_EIGHT):
            for m in range(1, 7):
                _assert_matches_the_core_bound(parse_gauss_code(_connected_sum(code, m)))

    def test_unit_minor_ends_the_bound(self, monkeypatch):
        # a 2-seed presentation with a unit minor: no prime is scanned
        d = parse_gauss_code("U5+O2-O3+U4-U1+O5+U3+O1+O4-U2-")
        search = wirtinger_number(d)
        assert search.omega == 2
        monkeypatch.setattr("vbridge.linkgroup._gcd_mod", None)
        assert ideal_lower_bound(d, result=search) == core_ideal_lower_bound(d) == (1, None)

    def test_optional_parameters_are_keyword_only(self, d3):
        # a positional call written for the former k_max cap fails loudly
        # instead of binding its cap to prime_bound
        seq = wirtinger_number(d3).sequence
        for call in (
            lambda: ideal_lower_bound(d3, 2),
            lambda: parity_lower_bound(d3, 2),
            lambda: sequence_bound(d3, seq, 2),
        ):
            with pytest.raises(TypeError):
                call()

    def test_trefoil_witness_replays(self, d3):
        result = ideal_lower_bound(d3)
        assert result.witness == (3, 2, 2)
        _assert_witness_replays(d3, result)

    def test_wide_connected_sums(self):
        # six summands: a 7-wide core, the nullity 7 needing every entry of
        # the evaluated core to vanish
        for code in (TREFOIL, FIGURE_EIGHT):
            d = parse_gauss_code(_connected_sum(code, 6))
            result = ideal_lower_bound(d)
            assert result.bound == minor_scan_ideal_lower_bound(d).bound == 7
            assert alexander_core(d).n_cols == wirtinger_number(d).omega == 7
            _assert_witness_replays(d, result)

    def test_maximal_minors_without_the_first_column(self):
        # the bound's minors: they vanish at (p, u) exactly where every
        # (width - 1)-minor of the whole presentation does
        rng = random.Random(2303)
        diagrams = list(_census_knots())
        diagrams += [random_knot(rng, max_chords=12, min_chords=6) for _ in range(60)]
        compared = 0
        for d in diagrams:
            seq = wirtinger_number(d).sequence
            width = seq.k
            if width < 2:
                continue
            rows = _presentation(d, seq)
            every = list(map(LaurentPolynomial, _minor_determinants(rows, width - 1)))
            maximal = list(map(LaurentPolynomial, _minor_determinants([r[1:] for r in rows], width - 1)))
            assert len(every) == width * width and len(maximal) == width
            for p in _primes_upto(13):
                for u in range(1, p):
                    assert all(g.evaluate_mod(p, u) == 0 for g in every) == all(
                        g.evaluate_mod(p, u) == 0 for g in maximal
                    ), (d, p, u)
            compared += 1
        assert compared > 200


def _assert_core_matches_full_matrix(d):
    expected = ideal_summary(full_matrix_ideal_lower_bound(d))
    assert ideal_summary(minor_scan_ideal_lower_bound(d)) == expected, d
    assert ideal_lower_bound(d).bound == expected[0], d
    projection = parity_projection(d)
    if projection != d:  # an all-even diagram is its own projection
        expected = ideal_summary(full_matrix_ideal_lower_bound(projection))
        assert ideal_summary(minor_scan_ideal_lower_bound(projection)) == expected, d
    assert parity_lower_bound(d).bound == expected[0], d
    _assert_matches_the_core_bound(d)


def _assert_sparse_core_matches_dense(d):
    assert alexander_core(d).rows == dense_alexander_core(laurent_alexander_matrix(d)).rows, d


class TestAlexanderCore:
    """The Alexander core and the bounds built on it are kept in
    tests/util.py.  The minor scan on the core certifies what the
    full-matrix bound certifies: same bound, witnesses and nontrivial
    flags; the bound on the search's seeds gives the core bound's bound and
    witness.  The core built from sparse rows is the dense elimination's
    core, also kept there, entry for entry.  The presentation the bound
    ranks, on the seeds of the search, presents the same module as the
    full matrix."""

    def test_trefoil_core(self, d3):
        core = alexander_core(d3)
        assert (len(core.rows), core.n_cols) == (2, 2)
        assert not any(p.is_unit for row in core.rows for p in row)
        # E_1 of the core is the Alexander polynomial's ideal, as before
        assert [str(g) for g in elementary_ideal_generators(core, 1)] == ["1*t^2-1*t^1+1*t^0"]

    def test_virtual_trefoil_core_is_one_zero(self, dv):
        # the columns sum to zero, so a one-column core is zero
        core = alexander_core(dv)
        assert core.rows == ((LaurentPolynomial(),),)
        [cert] = minor_scan_ideal_lower_bound(dv).certificates
        assert cert.generators == (LaurentPolynomial({0: 1}),)
        assert ideal_lower_bound(dv) == (1, None)

    def test_chordless_components_keep_their_columns(self):
        # the circle has one generator and no relation, so its core is a
        # matrix with no row and one column, free of rank 1
        circle = parse_gauss_code(".")
        assert alexander_core(circle) == AlexanderMatrix((), 1)
        assert alexander_matrix(circle).n_cols == 1
        d = parse_gauss_code("O1+U1+|.")
        core = alexander_core(d)
        assert (len(core.rows), core.n_cols) == (1, 2)
        assert core == dense_alexander_core(laurent_alexander_matrix(d))

    def test_every_row_sums_to_zero(self):
        # each strand's form t^e x + (1 - t^e) y has coefficients summing
        # to 1, so every unused relation's row sums to 1 - t^e - (1 - t^e)
        rng = random.Random(2302)
        diagrams = list(_census_knots())
        diagrams += [random_knot(rng, max_chords=14, min_chords=5) for _ in range(100)]
        diagrams += [
            parse_gauss_code(util.random_diagram_code(rng, 16, 3, 4, min_components=2))
            for _ in range(100)
        ]
        for d in diagrams:
            seq = wirtinger_number(d).sequence
            rows = _presentation(d, seq)
            assert all(len(row) == seq.k for row in rows), d
            assert len(rows) == len(strand_table(d).incidences) - (len(seq.entries) - seq.k)
            for row in rows:
                assert sum(map(LaurentPolynomial, row), LaurentPolynomial()).is_zero, d

    def test_presentation_nullity_is_the_full_matrix_nullity(self):
        # both present the Alexander module, so they have the same nullity
        # at every t = u over Z/p
        rng = random.Random(2402)
        diagrams = list(_census_knots())
        diagrams += [random_knot(rng, max_chords=12, min_chords=5) for _ in range(150)]
        diagrams += [parse_gauss_code(_connected_sum(TREFOIL, m)) for m in (2, 3)]
        nullities = set()
        for d in diagrams:
            seq = wirtinger_number(d).sequence
            presentation = laurent_matrix(AlexanderMatrix(tuple(_presentation(d, seq)), seq.k))
            full = laurent_alexander_matrix(d)
            for p in _primes_upto(13):
                for u in range(1, p):
                    ranks = []
                    for a in (presentation, full):
                        rows = [[g.evaluate_mod(p, u) for g in row] for row in a.rows]
                        ranks.append(a.n_cols - _rank_mod(rows, p))
                    assert ranks[0] == ranks[1], (d, p, u)
                    nullities.add(ranks[0])
        assert nullities == {1, 2, 3, 4}

    def test_projected_seeds_saturate_the_projection(self):
        # the images of a seed set that colors the knot color its
        # projection, and their sequence is a valid certificate there: the
        # search's seeds on every code up to four chords with two sign
        # variants and on random knots up to 12 chords, and the tail-bearing
        # strands, which color every knot, on random knots up to 40 chords
        rng = random.Random(2403)
        cases = [(d, wirtinger_number(d).seed_set) for d in _census_knots()]
        for _ in range(150):
            d = random_knot(rng, max_chords=12, min_chords=5)
            cases.append((d, wirtinger_number(d).seed_set))
        for _ in range(150):
            d = random_knot(rng, max_chords=40, min_chords=5)
            cases.append((d, [s.id for s in strand_table(d).strands if s.tails]))
        projected = 0
        for d, seeds in cases:
            projection = parity_projection(d)
            if projection is d:
                continue
            images = _projected_seeds(d, gaussian_parity(d), seeds)
            assert len(images) <= len(seeds)
            # a sequence verifies only when it colors every strand
            assert verify_coloring_sequence(projection, apply_coloring_moves(projection, images)), d
            projected += 1
        assert projected > 2500

    def test_every_code_up_to_three_chords_every_sign(self):
        checked = 0
        for n_chords in range(4):
            for code in enumerate_knot_codes(n_chords):
                for signs in itertools.product("+-", repeat=n_chords):
                    _assert_core_matches_full_matrix(parse_gauss_code(with_signs(code, signs)))
                    checked += 1
        assert checked == 1 + 2 * 2 + 12 * 4 + 120 * 8

    def test_seeded_four_and_five_chord_codes(self):
        rng = random.Random(404)
        codes = list(enumerate_knot_codes(4)) + list(enumerate_knot_codes(5))
        for code in rng.sample(codes, 300):
            signs = [rng.choice("+-") for _ in range(5)]
            _assert_core_matches_full_matrix(parse_gauss_code(with_signs(code, signs)))

    def test_random_six_and_seven_chord_knots(self):
        rng = random.Random(67)
        for _ in range(40):
            _assert_core_matches_full_matrix(random_knot(rng, max_chords=7, min_chords=6))

    def test_sparse_core_matches_dense(self):
        for n_chords in range(4):
            for code in enumerate_knot_codes(n_chords):
                for signs in itertools.product("+-", repeat=n_chords):
                    _assert_sparse_core_matches_dense(parse_gauss_code(with_signs(code, signs)))
        rng = random.Random(404)
        codes = list(enumerate_knot_codes(4)) + list(enumerate_knot_codes(5))
        for code in rng.sample(codes, 300):
            signs = [rng.choice("+-") for _ in range(5)]
            _assert_sparse_core_matches_dense(parse_gauss_code(with_signs(code, signs)))
        rng = random.Random(612)
        for _ in range(200):
            _assert_sparse_core_matches_dense(random_knot(rng, max_chords=12, min_chords=6))
        rng = random.Random(3)
        widths = []
        for n in (20, 40, 60, 100):
            d = random_knot(rng, max_chords=n, min_chords=n)
            _assert_sparse_core_matches_dense(d)
            widths.append(alexander_core(d).n_cols)
        assert widths == [3, 4, 7, 11]

    def test_bounds_never_build_the_dense_matrix(self, d3, monkeypatch):
        def dense(*args):
            raise AssertionError("the bounds must not build the dense Alexander matrix")

        monkeypatch.setattr("vbridge.linkgroup.alexander_matrix", dense)
        assert ideal_lower_bound(d3).bound == 2
        assert parity_lower_bound(d3).bound == 2

    def test_certificates_are_tuples(self, d3):
        result = ideal_lower_bound(d3)
        assert type(result) is IdealBoundResult
        assert result == (result.bound, result.witness) == (2, (3, 2, 2))
        assert result._replace(witness=None) == (2, None)
        with pytest.raises(AttributeError):
            result.bound = 3

    def test_one_strand_knots_build_no_core(self, dv, d6, monkeypatch):
        # omega 1: the bound never exceeds the seed count, so neither bound
        # builds a presentation
        def build(*args):
            raise AssertionError("a knot that one strand saturates needs no presentation")

        # the dense matrix is a presentation too, so this stops it as well
        monkeypatch.setattr("vbridge.linkgroup._presentation", build)
        for d in (dv, d6):
            search = wirtinger_number(d)
            assert search.omega == 1
            assert ideal_lower_bound(d) == parity_lower_bound(d) == (1, None)
            assert ideal_lower_bound(d, result=search) == (1, None)
            assert parity_lower_bound(d, result=search) == (1, None)

    def test_one_strand_knots_have_cores_at_most_one_wide(self, monkeypatch):
        # a core at most one wide has E_k = (1) for every k >= 1, so the
        # bound and witness at omega 1 are the ones the core gives, with or
        # without the former one-strand shortcut
        def diagrams():
            for n_chords in range(4):
                for code in enumerate_knot_codes(n_chords):
                    for signs in itertools.product("+-", repeat=n_chords):
                        yield parse_gauss_code(with_signs(code, signs))
            rng = random.Random(1717)
            for code in enumerate_knot_codes(4):
                yield parse_gauss_code(with_signs(code, [rng.choice("+-") for _ in range(4)]))
            for _ in range(300):
                yield random_knot(rng, max_chords=40, min_chords=5)
            for _ in range(100):
                yield parse_gauss_code(random_one_overbridge_code(rng, 40, min_chords=5))

        saturated = []
        for d in diagrams():
            for e in {d, parity_projection(d)}:
                if one_strand_saturates(e):
                    assert wirtinger_number(e, max_k=1).omega == 1, e
                    assert alexander_core(e).n_cols <= 1, e
                    assert ideal_lower_bound(e) == core_ideal_lower_bound(e) == (1, None), e
                    saturated.append(e)
        assert len(saturated) > 4000
        assert max(e.n_chords for e in saturated) >= 30
        monkeypatch.setattr(util, "one_strand_saturates", lambda d: False)
        for e in saturated:
            assert core_ideal_lower_bound(e) == (1, None), e

    def test_deadline_stops_the_bounds(self, d3):
        core = alexander_core(d3)
        assert core.n_cols > 0
        past = time.perf_counter() - 1.0
        with pytest.raises(SearchTimeoutError):
            ideal_lower_bound(d3, deadline=past)
        with pytest.raises(SearchTimeoutError):
            parity_lower_bound(d3, deadline=past)
        with pytest.raises(SearchTimeoutError):
            _minor_determinants([[dict(g.items()) for g in row] for row in core.rows], 1, deadline=past)
        future = time.perf_counter() + 60.0
        assert ideal_lower_bound(d3, deadline=future).bound == 2

    def test_deadline_stops_the_one_strand_shortcut(self, dv):
        assert one_strand_saturates(dv)
        past = time.perf_counter() - 1.0
        with pytest.raises(SearchTimeoutError):
            ideal_lower_bound(dv, deadline=past)
        with pytest.raises(SearchTimeoutError):
            parity_lower_bound(dv, deadline=past)

    def test_deadline_stops_wide_core_minors(self):
        # the 100-chord knot of this draw: its reduced seed set is 10 wide,
        # and the bound on it takes seconds; seeded on its 51 tail-bearing
        # strands (which color everything), the 50 x 50 minors take far
        # longer still.  Its parity projection needs only 7 seeds.
        rng = random.Random(3)
        for n in (20, 40, 60, 100):
            d = random_knot(rng, max_chords=n, min_chords=n)
        assert len(reduced_seed_set(d)) == 10
        seq = apply_coloring_moves(d, [s.id for s in strand_table(d).strands if s.tails])
        assert len(seq.entries) == strand_table(d).n_strands and seq.k == 51
        for bound in (
            lambda deadline: sequence_bound(d, seq, deadline=deadline),
            lambda deadline: ideal_lower_bound(d, deadline=deadline),
        ):
            start = time.perf_counter()
            with pytest.raises(SearchTimeoutError):
                bound(start + 0.2)
            assert time.perf_counter() - start < 1.0
        assert parity_lower_bound(d) == core_parity_lower_bound(d) == (2, (5, 3, 2))


# a knot of omega 3 with odd chords whose parity projection is 3 wide too
WIDE_ODD_KNOT = "O2+O4-U10-U8-O10-U5+U2+U1-O5+O1-O9+U9+U6-U3-O11-U7-O3-U11-O7-U4-O8-O6-"


def _assert_matches_the_laurent_bounds(d, search=None):
    """The bounds on plain integer polynomials give the (bound, witness) of
    the former ``LaurentPolynomial`` bounds kept in tests/util.py, on the
    search's sequence and on ``reduced_seed_set``'s, with the search passed
    in (and the parity stage given the ideal stage's result, as ``analyze``
    does) and without."""
    search = search or wirtinger_number(d)
    local = apply_coloring_moves(d, reduced_seed_set(d))
    for seq in (search.sequence, local):
        assert sequence_bound(d, seq) == util.laurent_sequence_bound(d, seq), d
    ideal = ideal_lower_bound(d, result=search)
    assert ideal == util.laurent_ideal_lower_bound(d, result=search), d
    assert ideal_lower_bound(d) == util.laurent_ideal_lower_bound(d), d
    expected = util.laurent_parity_lower_bound(d, result=search, ideal=ideal)
    assert parity_lower_bound(d, result=search, ideal=ideal) == expected, d
    assert parity_lower_bound(d) == util.laurent_parity_lower_bound(d), d
    return ideal


class TestIntegerPolynomialOracle:
    """The presentation, minors and prime scan on {exponent: coefficient}
    dicts and coefficient tuples give what the ``LaurentPolynomial`` bounds
    gave, witness included."""

    def test_every_code_up_to_four_chords_every_sign(self):
        bounds = []
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                for signs in itertools.product("+-", repeat=n_chords):
                    d = parse_gauss_code(with_signs(code, signs))
                    bounds.append(_assert_matches_the_laurent_bounds(d).bound)
        assert len(bounds) == 1 + 2 * 2 + 12 * 4 + 120 * 8 + 1680 * 16
        assert bounds.count(2) > 500

    def test_canonical_minors_are_the_unit_canonical_coefficients(self):
        # one tuple per class {+-t^m g}, so a unit is (1,) and ends the bound
        rng = random.Random(3004)
        assert _canonical({}) == () and _canonical({-3: -1}) == _canonical({2: 1}) == (1,)
        for _ in range(300):
            lo = rng.randint(-3, 3)
            g = {lo + i: c for i in range(rng.randint(1, 5)) if (c := rng.choice((0, 1, -1, 2, -3)))}
            expected = integer_poly(LaurentPolynomial(g).unit_canonical())
            assert _canonical(g) == expected, g
            assert _canonical({e: -c for e, c in g.items()}) == expected, g

    def test_random_knots_on_both_sequences(self):
        rng = random.Random(3001)
        witnesses = 0
        for _ in range(300):
            d = random_knot(rng, max_chords=14, min_chords=5)
            witnesses += _assert_matches_the_laurent_bounds(d).witness is not None
        assert witnesses > 50

    def test_connected_sums_up_to_width_seven(self):
        for code in (TREFOIL, FIGURE_EIGHT):
            for m in range(1, 7):
                d = parse_gauss_code(_connected_sum(code, m))
                search = wirtinger_number(d)
                assert search.omega == m + 1
                assert _assert_matches_the_laurent_bounds(d, search).bound == m + 1

    def test_links_through_sequence_bound(self):
        rng = random.Random(3002)
        widths, witnesses = set(), 0
        for _ in range(200):
            d = parse_gauss_code(util.random_diagram_code(rng, 20, 3, 6, min_components=2))
            seq = wirtinger_number(d).sequence
            result = sequence_bound(d, seq)
            assert result == util.laurent_sequence_bound(d, seq), d
            widths.add(seq.k)
            witnesses += result.witness is not None
        assert {2, 3, 4} <= widths and witnesses > 20

    def test_a_past_deadline_still_raises(self):
        d = parse_gauss_code(_connected_sum(TREFOIL, 3))
        seq = wirtinger_number(d).sequence
        past = time.perf_counter() - 1.0
        for bound in (
            lambda: sequence_bound(d, seq, deadline=past),
            lambda: ideal_lower_bound(d, deadline=past),
            lambda: parity_lower_bound(d, deadline=past),
            lambda: parity_lower_bound(parse_gauss_code(WIDE_ODD_KNOT), deadline=past),
        ):
            with pytest.raises(SearchTimeoutError):
                bound()

    def test_single_projected_seed_skips_the_local_search(self, monkeypatch):
        # when the search's seeds project to one strand, that strand colors
        # the projection, so the bound is the width-1 presentation's (1,
        # None) and no local search runs; both only where that holds
        codes = [with_signs(c, "+" * 4) for c in enumerate_knot_codes(4)]
        rng = random.Random(3003)
        diagrams = [parse_gauss_code(c) for c in codes]
        diagrams += [random_knot(rng, max_chords=12, min_chords=5) for _ in range(200)]
        cases = []
        for d in diagrams:
            search = wirtinger_number(d)
            parity = gaussian_parity(d)
            if search.omega >= 2 and any(parity.values()):
                cases.append((d, search, len(_projected_seeds(d, parity, search.seed_set)) == 1))
        assert sum(single for _, _, single in cases) > 20
        assert sum(not single for _, _, single in cases) > 20
        searched = []
        real = reduced_seed_set

        def counted(*args, **kwargs):
            searched.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr("vbridge.parity.reduced_seed_set", counted)
        for d, search, single in cases:
            result = parity_lower_bound(d, result=search)
            assert result == util.laurent_parity_lower_bound(d, result=search), d
            assert len(searched) == (0 if single else 1), d
            if single:
                assert result == (1, None)
            searched.clear()


class TestNoLaurentPolynomialInTheBounds:
    def test_bounds_build_no_laurent_polynomial(self, monkeypatch):
        # the ideal and parity bounds of width-3 knots, one classical and
        # one whose projection keeps 3 seeds, with the constructor broken
        cases = [
            (parse_gauss_code(_connected_sum(TREFOIL, 2)), (3, (3, 2, 3)), (3, (3, 2, 3))),
            (parse_gauss_code(WIDE_ODD_KNOT), (2, (3, 2, 2)), (2, (3, 2, 2))),
        ]
        searches = [wirtinger_number(d) for d, _, _ in cases]

        def broken(self, *args, **kwargs):
            raise AssertionError("the bounds must not build a LaurentPolynomial")

        monkeypatch.setattr(LaurentPolynomial, "__init__", broken)
        for (d, ideal, parity), search in zip(cases, searches):
            assert search.omega == 3
            assert ideal_lower_bound(d) == ideal_lower_bound(d, result=search) == ideal, d
            assert parity_lower_bound(d) == parity_lower_bound(d, result=search) == parity, d
        with pytest.raises(AssertionError):
            laurent_alexander_matrix(cases[0][0])
