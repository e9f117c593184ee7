import itertools
import random

import pytest

from vbridge.errors import NotAKnotError
from vbridge.gauss import Chord, Endpoint, parse_gauss_code, to_gauss_code
from vbridge.linkgroup import ideal_lower_bound
from vbridge.parity import gaussian_parity, parity_lower_bound, parity_projection
from util import (
    enumerate_knot_codes,
    quadratic_gaussian_parity,
    random_knot,
    token_parity_projection,
    with_signs,
)


class TestGaussianParity:
    def test_classical_trefoil_is_even(self, d3):
        assert gaussian_parity(d3) == {1: 0, 2: 0, 3: 0}

    def test_virtual_trefoil_is_odd(self, dv):
        assert gaussian_parity(dv) == {1: 1, 2: 1}

    def test_kink(self):
        assert gaussian_parity(parse_gauss_code("O1+U1+")) == {1: 0}

    def test_chordless(self):
        assert gaussian_parity(parse_gauss_code(".")) == {}

    def test_links_rejected(self):
        with pytest.raises(NotAKnotError):
            gaussian_parity(parse_gauss_code("O1+|U1+"))

    def test_span_length_matches_the_pairwise_count(self):
        # every code up to 4 chords, then seeded random knots up to 40 chords;
        # signs do not enter the parity
        diagrams = [parse_gauss_code(code) for n in range(5) for code in enumerate_knot_codes(n)]
        rng = random.Random(1803)
        diagrams += [random_knot(rng, max_chords=40) for _ in range(1000)]
        for d in diagrams:
            parity = gaussian_parity(d)
            assert parity == quadratic_gaussian_parity(d)
            assert list(parity) == [c.id for c in d.chords]

    def test_interleave_symmetry(self):
        # crossing counts are symmetric, so total interleavings come in pairs
        rng = random.Random(3)
        for _ in range(50):
            d = random_knot(rng, max_chords=8)
            spans = {}
            for c in d.chords:
                p, q = sorted((c.tail.position, c.head.position))
                spans[c.id] = (p, q)
            for c in d.chords:
                for o in d.chords:
                    if c.id >= o.id:
                        continue
                    p, q = spans[c.id]
                    a, b = spans[o.id]
                    assert ((p < a < q) != (p < b < q)) == ((a < p < b) != (a < q < b))


class TestParityProjection:
    def test_even_diagram_fixed(self, d3):
        assert to_gauss_code(parity_projection(d3)) == to_gauss_code(d3)

    def test_even_diagram_is_its_own_projection(self, d3):
        # no chord to delete, so no diagram or strand table is rebuilt
        assert parity_projection(d3) is d3

    def test_all_odd_projects_to_circle(self, dv):
        p = parity_projection(dv)
        assert to_gauss_code(p) == "."
        assert p.n_chords == 0

    def test_mixed(self):
        # virtual trefoil chords are odd, the trailing kink is even
        d = parse_gauss_code("O1+O2+U1+U2+O3+U3+")
        assert gaussian_parity(d) == {1: 1, 2: 1, 3: 0}
        assert to_gauss_code(parity_projection(d)) == "O3+U3+"

    def test_preserves_signs_and_order(self):
        rng = random.Random(9)
        for _ in range(60):
            d = random_knot(rng, max_chords=8)
            p = parity_projection(d)
            kept = {c.id for c in p.chords}
            assert all(gaussian_parity(d)[i] == 0 for i in kept)
            for c in p.chords:
                assert c.sign == d.chord(c.id).sign
            if p.n_chords:
                orig = [e.chord_id for e in d.components[0] if e.chord_id in kept]
                assert [e.chord_id for e in p.components[0]] == orig

    def test_matches_the_token_round_trip(self):
        # every code up to 4 chords with every sign, then seeded random
        # knots up to 40 chords
        diagrams = [
            parse_gauss_code(with_signs(code, signs))
            for n in range(5)
            for code in enumerate_knot_codes(n)
            for signs in itertools.product("+-", repeat=n)
        ]
        rng = random.Random(1911)
        diagrams += [random_knot(rng, max_chords=40) for _ in range(1000)]
        circle = parse_gauss_code(".")
        kinds = set()
        for d in diagrams:
            p = parity_projection(d)
            oracle = token_parity_projection(d)
            assert (p, repr(p)) == (oracle, repr(oracle)), d
            # the records are built with tuple.__new__, and must keep their types
            assert all(type(e) is Endpoint for e in p.components[0]), d
            assert all(type(c) is Chord and type(c.head) is Endpoint for c in p.chords), d
            odd = sum(gaussian_parity(d).values())
            if not odd:
                assert p is d
            elif odd == d.n_chords:
                assert p == circle
            kinds.add((not odd, odd == d.n_chords))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_links_rejected(self):
        with pytest.raises(NotAKnotError):
            parity_projection(parse_gauss_code("O1+O2+|U1+U2+"))

    def test_projection_idempotent_on_fixpoint(self):
        # iterating the projection reaches a diagram it fixes
        rng = random.Random(21)
        for _ in range(40):
            d = random_knot(rng, max_chords=7)
            seen = set()
            while True:
                code = to_gauss_code(d)
                assert code not in seen  # strictly fewer chords each pass
                seen.add(code)
                p = parity_projection(d)
                if to_gauss_code(p) == code:
                    break
                d = p


class TestParityLowerBound:
    def test_virtual_trefoil(self, dv):
        assert parity_lower_bound(dv).bound == 1

    def test_classical_trefoil(self, d3):
        assert parity_lower_bound(d3).bound == 2

    def test_chordless(self):
        assert parity_lower_bound(parse_gauss_code(".")).bound == 1

    def test_reuses_the_ideal_bound_of_an_even_knot(self, d3, dv):
        ideal = ideal_lower_bound(d3)
        assert parity_lower_bound(d3, ideal=ideal) is ideal
        # with an odd chord the given result goes unused: the virtual
        # trefoil projects to the circle, bound 1, not the trefoil's 2
        assert parity_lower_bound(dv, ideal=ideal).bound == 1
        rng = random.Random(16)
        for _ in range(60):
            d = random_knot(rng, 7)
            assert parity_lower_bound(d, ideal=ideal_lower_bound(d)) == parity_lower_bound(d)

    def test_links_rejected(self):
        with pytest.raises(NotAKnotError):
            parity_lower_bound(parse_gauss_code(".|."))
