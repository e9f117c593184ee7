import random
import re
import time

import pytest

from vbridge.errors import (
    NotDistributiveError,
    NotIdempotentError,
    NotRightInvertibleError,
    SearchTimeoutError,
)
from vbridge.gauss import ensure_tail_per_component, parse_gauss_code
from vbridge.quandle import (
    _alexander_unit,
    count_colorings,
    dihedral_quandle,
    load_quandle_table,
    trivial_quandle,
    validate_quandle,
)
from vbridge.search import wirtinger_number
from util import (
    brute_force_colorings,
    enumerate_knot_codes,
    linear_form_alexander_count,
    random_diagram,
    random_knot,
    with_signs,
)


class TestValidation:
    def test_trivial(self):
        q = trivial_quandle(4)
        assert q.order == 4
        assert q.name == "T4"
        assert all(q.apply(x, y) == x for x in range(4) for y in range(4))
        assert all(q.apply(x, y, -1) == x for x in range(4) for y in range(4))

    def test_dihedral(self):
        q = dihedral_quandle(3)
        assert q.name == "R3"
        assert q.apply(0, 1) == 2
        # dihedral is an involution in the first slot
        assert all(
            q.apply(q.apply(x, y), y) == x for x in range(3) for y in range(3)
        )
        assert q.inverse == q.table

    def test_not_idempotent(self):
        with pytest.raises(NotIdempotentError) as exc:
            validate_quandle([[1, 0], [1, 0]])
        assert exc.value.witness == 0

    def test_not_right_invertible(self):
        with pytest.raises(NotRightInvertibleError) as exc:
            validate_quandle([[0, 0], [0, 1]])
        assert exc.value.witness == 0

    def test_not_distributive(self):
        with pytest.raises(NotDistributiveError) as exc:
            validate_quandle([[0, 0, 1], [2, 1, 0], [1, 2, 2]])
        assert exc.value.witness == (0, 1, 0)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            validate_quandle([[0, 1], [1]])
        with pytest.raises(ValueError):
            validate_quandle([[0, 2], [1, 1]])


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        q = dihedral_quandle(3)
        path = tmp_path / "dihedral3.txt"
        lines = ["3"] + [" ".join(map(str, row)) for row in q.table]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_quandle_table(path)
        assert loaded.table == q.table
        assert loaded.name == "dihedral3"

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 0 0\n")
        with pytest.raises(ValueError):
            load_quandle_table(path)

    def test_axiom_failure_keeps_its_class_and_witness(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0 1\n")
        with pytest.raises(NotIdempotentError, match=f"^{re.escape(str(path))}: 0 > 0 = 1$") as info:
            load_quandle_table(path)
        assert info.value.witness == 0

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            load_quandle_table(path)


class TestCountColorings:
    def test_trefoil_dihedral(self, d3):
        assert count_colorings(d3, dihedral_quandle(3)) == 9

    def test_d6_dihedral(self, d6):
        assert count_colorings(d6, dihedral_quandle(3)) == 3

    def test_trivial_quandle_counts_components(self):
        # with x > y = x every relation forces equality along a component
        for code, comps in [("O1+U1+", 1), ("O1+U1+|O2+U2+", 2)]:
            d = parse_gauss_code(code)
            for n in (2, 3, 5):
                assert count_colorings(d, trivial_quandle(n)) == n ** comps

    def test_chordless_after_normalization(self):
        d = ensure_tail_per_component(parse_gauss_code("."))
        assert count_colorings(d, dihedral_quandle(5)) == 5

    def test_agrees_with_brute_force(self):
        rng = random.Random(17)
        quandles = [trivial_quandle(2), dihedral_quandle(3)]
        for _ in range(40):
            d = ensure_tail_per_component(random_diagram(rng, max_chords=5))
            for q in quandles:
                assert count_colorings(d, q) == brute_force_colorings(d, q)

    def test_seed_set_independence(self, d3):
        # any complete seed set gives the same count
        from itertools import combinations

        from vbridge.search import saturated_strands

        q = dihedral_quandle(3)
        counts = set()
        for k in (2, 3):
            for seeds in combinations(range(3), k):
                if len(saturated_strands(d3, seeds)) == 3:
                    counts.add(count_colorings(d3, q, seeds=seeds))
        assert counts == {9}

    def test_incomplete_seeds_rejected(self, d3):
        with pytest.raises(ValueError):
            count_colorings(d3, dihedral_quandle(3), seeds=[0])

    def test_reuses_search_result(self, d6):
        result = wirtinger_number(d6)
        assert count_colorings(d6, dihedral_quandle(3), result=result) == 3


def _sandwiched(d, q) -> bool:
    """|X| <= colorings <= |X|^omega for the diagram's Wirtinger number."""
    result = wirtinger_number(d)
    return q.order <= count_colorings(d, q, result=result) <= q.order**result.omega


class TestSandwich:
    def test_examples(self, d3, d6, dv):
        q = dihedral_quandle(3)
        assert _sandwiched(d3, q)
        assert _sandwiched(d6, q)
        assert _sandwiched(dv, q)

    def test_random_knots(self):
        rng = random.Random(23)
        quandles = [trivial_quandle(3), dihedral_quandle(3)]
        for _ in range(25):
            d = random_knot(rng, max_chords=5, min_chords=1)
            for q in quandles:
                assert _sandwiched(d, q)


def alexander_quandle(p, u):
    """x > y = u*x + (1-u)*y on Z/p."""
    return validate_quandle(
        [[(u * x + (1 - u) * y) % p for y in range(p)] for x in range(p)], name=f"Z{p}u{u}"
    )


def swap01(q):
    """``q`` relabelled by the transposition of 0 and 1: an isomorphic
    quandle, so the same counts, whose table is no longer affine for p > 3."""
    sigma = [1, 0] + list(range(2, q.order))
    rows = [[0] * q.order for _ in range(q.order)]
    for x in range(q.order):
        for y in range(q.order):
            rows[sigma[x]][sigma[y]] = sigma[q.table[x][y]]
    return validate_quandle(rows, name=q.name + "s")


def small_knots_with_signs(max_chords=4):
    rng = random.Random(5)
    for n_chords in range(max_chords + 1):
        for code in enumerate_knot_codes(n_chords):
            signs = [rng.choice("+-") for _ in range(n_chords)]
            yield parse_gauss_code(with_signs(code, signs))


def seeded_links(seed, count=30):
    """Seeded 2-3 component links of 20-32 chords, a tail on each component."""
    rng = random.Random(seed)
    links = []
    while len(links) < count:
        d = random_diagram(rng, max_chords=32, max_components=3, min_chords=20)
        if d.n_components >= 2:
            links.append(ensure_tail_per_component(d))
    return links


class TestLinearCount:
    """Alexander quandles take the linear count; every other table the
    enumeration.  Relabelling a table by a non-affine permutation keeps
    its counts and moves it to the enumeration, which is the oracle."""

    QUANDLES = [
        dihedral_quandle(5),
        dihedral_quandle(7),
        alexander_quandle(5, 2),
        alexander_quandle(7, 3),
    ]

    def test_paths(self):
        for q, relabelled in zip(self.QUANDLES, self.RELABELLED):
            assert _alexander_unit(q) is not None, q.name
            assert _alexander_unit(relabelled) is None, q.name
        assert _alexander_unit(alexander_quandle(7, 3)) == 3
        assert _alexander_unit(dihedral_quandle(5)) == 4
        assert _alexander_unit(trivial_quandle(5)) == 1
        assert _alexander_unit(dihedral_quandle(3)) == 2
        # order not prime, or not affine: enumerated
        assert _alexander_unit(dihedral_quandle(4)) is None
        assert _alexander_unit(dihedral_quandle(6)) is None
        # 2 swaps 0 and 1, which act trivially: a quandle but not Alexander
        assert _alexander_unit(validate_quandle([[0, 0, 1], [1, 1, 0], [2, 2, 2]])) is None

    RELABELLED = [swap01(q) for q in QUANDLES]

    def check(self, d):
        result = wirtinger_number(d)
        for q, relabelled in zip(self.QUANDLES, self.RELABELLED):
            assert count_colorings(d, q, result=result) == count_colorings(
                d, relabelled, result=result
            ), q.name
        # every relabelling of a trivial quandle is the same table
        assert count_colorings(d, trivial_quandle(5), result=result) == 5 ** d.n_components

    def test_every_small_knot(self):
        checked = 0
        for d in small_knots_with_signs():
            self.check(d)
            checked += 1
        assert checked == 1 + 2 + 12 + 120 + 1680

    def test_random_links(self):
        for d in seeded_links(29):
            self.check(d)

    def test_order_three_against_brute_force(self):
        # every permutation of Z/3 is affine, so no relabelling leaves the
        # linear path: R3 is checked against all strand assignments
        q = dihedral_quandle(3)
        for d in small_knots_with_signs():
            assert count_colorings(d, q) == brute_force_colorings(d, q)
        rng = random.Random(37)
        for _ in range(40):
            d = ensure_tail_per_component(random_diagram(rng, max_chords=6, max_components=3))
            assert count_colorings(d, q) == brute_force_colorings(d, q)


class TestSeedWalk:
    """Walking the sequence once per seed gives the counts of the former
    walk that carried a linear form per strand."""

    QUANDLES = [
        dihedral_quandle(3),
        dihedral_quandle(5),
        dihedral_quandle(7),
        alexander_quandle(7, 3),
        trivial_quandle(5),
    ]

    def check(self, d):
        result = wirtinger_number(d)
        for q in self.QUANDLES:
            assert count_colorings(d, q, result=result) == linear_form_alexander_count(d, q, result), q.name

    def test_every_small_knot(self):
        for d in small_knots_with_signs():
            self.check(d)

    def test_random_links(self):
        for d in seeded_links(31):
            self.check(d)


class TestDeadline:
    def test_enumeration_stops_past_the_deadline(self, d3):
        with pytest.raises(SearchTimeoutError):
            count_colorings(d3, dihedral_quandle(4), deadline=time.perf_counter() - 1)
        assert count_colorings(d3, dihedral_quandle(4), deadline=time.perf_counter() + 60) == 4

    def test_linear_count_needs_no_check(self, d3):
        assert count_colorings(d3, dihedral_quandle(3), deadline=time.perf_counter() - 1) == 9
