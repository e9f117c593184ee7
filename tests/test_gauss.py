import gc
import inspect
import itertools
import random
import re
import sys
import weakref

import pytest

from vbridge.errors import (
    EmptyInputError,
    GaussCodeError,
    GaussSyntaxError,
    SignMismatchError,
    UnbalancedChordError,
)
from vbridge.gauss import (
    GaussDiagram,
    HeadIncidence,
    Strand,
    _build_strand_table,
    _tokenize,
    bridge_count,
    cut_split_witness,
    ensure_tail_per_component,
    from_tokens,
    is_cut_split,
    parse_gauss_code,
    strand_table,
    to_gauss_code,
)
from vbridge.parity import gaussian_parity, parity_projection
from vbridge.search import wirtinger_number
from conftest import D6_CODE
from util import (
    assert_same_diagram,
    assert_same_records,
    chord_index_strand_table,
    endpoint_bridge_count,
    endpoint_ensure_tail_per_component,
    endpoint_from_tokens,
    endpoint_gaussian_parity,
    endpoint_parity_projection,
    endpoint_strand_table,
    enumerate_knot_codes,
    named_tuple_from_tokens,
    oracle_from_tokens,
    oracle_parse,
    oracle_strand_table,
    oracle_tokenize,
    random_diagram,
    random_diagram_code,
    with_signs,
)


class TestParser:
    def test_six_chord_example(self, d6):
        assert d6.n_components == 1
        assert d6.n_chords == 6
        assert all(sign == -1 for sign in d6.signs.values())
        assert to_gauss_code(d6) == D6_CODE

    def test_chordless_circle(self):
        d = parse_gauss_code(".")
        assert d.n_components == 1
        assert d.n_chords == 0
        assert to_gauss_code(d) == "."

    def test_whitespace_ignored(self):
        d = parse_gauss_code(" O1+ U1+\n")
        assert to_gauss_code(d) == "O1+U1+"

    def test_chord_across_components(self):
        d = parse_gauss_code("O1+|U1+")
        assert d.n_components == 2
        # chord 1's tail is the token of component 0, its head that of component 1
        assert d.tokens == ((("O", 1, 1),), (("U", 1, 1),))

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_gauss_code("")
        with pytest.raises(EmptyInputError):
            parse_gauss_code("   ")
        with pytest.raises(EmptyInputError):
            from_tokens([])

    def test_unbalanced(self):
        with pytest.raises(UnbalancedChordError):
            parse_gauss_code("O1-U2-")
        with pytest.raises(UnbalancedChordError):
            parse_gauss_code("O1+O1+")
        with pytest.raises(UnbalancedChordError):
            parse_gauss_code("O1+U1+O1+")
        with pytest.raises(UnbalancedChordError):
            from_tokens([[("O", 1, 1), ("U", 1, 1), ("O", 1, 1)]])
        with pytest.raises(UnbalancedChordError):
            from_tokens([[("O", 1, 1)], [("O", 1, 1)]])

    def test_sign_mismatch(self):
        with pytest.raises(SignMismatchError):
            parse_gauss_code("O1+U1-")
        with pytest.raises(SignMismatchError):
            from_tokens([[("O", 1, 1)], [("U", 1, -1)]])

    def test_syntax_errors(self):
        for bad in ["O1*U1+", "X1+Y1+", "O1+|", "O1+||U1+", "O0+U0+", "OU+"]:
            with pytest.raises(GaussSyntaxError):
                parse_gauss_code(bad)
        with pytest.raises(GaussSyntaxError):
            from_tokens([[("O", 0, 1), ("U", 0, 1)]])

    def test_roundtrip_random(self):
        rng = random.Random(20260823)
        for _ in range(200):
            d = random_diagram(rng)
            assert parse_gauss_code(to_gauss_code(d)) == d
            assert from_tokens(d.tokens) == d

    def test_knot_codes_round_trip(self):
        for n in range(5):
            for code in enumerate_knot_codes(n):
                d = parse_gauss_code(code)
                assert from_tokens(d.tokens) == d


class TestRecords:
    """Strands and head incidences are named tuples, and a diagram's
    tokens are tuples."""

    def test_equal_parses_are_equal_and_hash_equal(self):
        a, b = parse_gauss_code(D6_CODE), parse_gauss_code(D6_CODE)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert strand_table(a) == strand_table(b)
        assert hash(strand_table(a)) == hash(strand_table(b))

    def test_fields_are_read_only(self, d6):
        table = strand_table(d6)
        for record, name in ((table.strands[0], "tails"), (table.incidences[0], "after")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert type(d6.tokens) is tuple
        assert all(type(comp) is tuple and all(type(t) is tuple for t in comp) for comp in d6.tokens)

    def test_lazy_caches_are_not_fields(self):
        a, b = parse_gauss_code(D6_CODE), parse_gauss_code(D6_CODE)
        strand_table(a)
        assert list(inspect.signature(GaussDiagram).parameters) == ["tokens", "signs"]
        assert repr(a) == f"GaussDiagram({a.tokens!r}, {a.signs!r})"
        assert eval(repr(a), {"GaussDiagram": GaussDiagram}) == a
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a == GaussDiagram(b.tokens, b.signs) and hash(a) == hash(b.tokens)


def assert_matches_oracle(code: str) -> GaussDiagram:
    """Tokens, diagram and strand table of ``code`` equal the oracle's,
    table record types included; returns the diagram."""
    tokens = _tokenize(code)
    assert tokens == oracle_tokenize(code), code
    d, expected = from_tokens(tokens), oracle_from_tokens(tokens)
    assert_same_diagram(d, expected)
    table = _build_strand_table(d)
    assert table == oracle_strand_table(expected), code
    assert all(type(s) is Strand for s in table.strands)
    assert all(type(i) is HeadIncidence for i in table.incidences)
    return d


class TestOnePassOracle:
    """The one-pass tokenizer, diagram builder and strand table against the
    former token-by-token, two-pass and position-walking code."""

    def test_every_knot_code_up_to_four_chords_every_sign(self):
        checked = 0
        for n in range(5):
            for code in enumerate_knot_codes(n):
                for signs in itertools.product("+-", repeat=n):
                    assert_matches_oracle(with_signs(code, signs))
                    checked += 1
        assert checked == 1 + 2 * 2 + 12 * 4 + 120 * 8 + 1680 * 16

    def test_seeded_random_knots_up_to_forty_chords(self):
        rng = random.Random(1801)
        for _ in range(300):
            assert_matches_oracle(random_diagram_code(rng, max_chords=40, max_components=1))

    def test_seeded_random_links_up_to_thirty_two_chords(self):
        rng = random.Random(1802)
        sizes = set()
        for _ in range(300):
            code = random_diagram_code(rng, max_chords=32, max_components=3, min_components=2)
            sizes.add(assert_matches_oracle(code).n_components)
        assert sizes == {2, 3}

    def test_every_whitespace_character_is_dropped_as_the_regex_did(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = [c for c in every if c.isspace()]
        assert spaces == re.findall(r"\s", every)
        code = "".join(spaces) + "O1+" + "".join(spaces) + "U1+|" + "".join(spaces) + "."
        assert assert_matches_oracle(code) == parse_gauss_code("O1+U1+|.")


def _failure(parse, code):
    try:
        parse(code)
    except GaussCodeError as exc:
        return type(exc), str(exc)
    return None


class TestMalformedInputOracle:
    """Malformed codes raise the oracle's error class with its message; the
    two-fault codes pin the order in which faults are reported."""

    CASES = [
        ("", EmptyInputError),
        ("  \t\n", EmptyInputError),
        ("|", GaussSyntaxError),
        ("O1+U1+|", GaussSyntaxError),
        ("O1+U1+||O2+U2+", GaussSyntaxError),
        ("O1+X1+", GaussSyntaxError),
        ("O1+U1+Z2+U2+O3+U3+", GaussSyntaxError),
        ("O1*U1+", GaussSyntaxError),
        ("O1+U1", GaussSyntaxError),
        ("O1U1+", GaussSyntaxError),
        ("OU+", GaussSyntaxError),
        ("O0+U0+", GaussSyntaxError),
        ("O00+U00+", GaussSyntaxError),
        ("O1+U1+O1+", UnbalancedChordError),
        ("O1+O1+", UnbalancedChordError),
        ("O1-U2-", UnbalancedChordError),
        ("O1+|O1+", UnbalancedChordError),
        ("O1+U1-", SignMismatchError),
        ("O1+|U1-", SignMismatchError),
        # two faults: the tokenizer's come first, component by component
        ("|O1+X1+", GaussSyntaxError),
        ("O1+X1+|", GaussSyntaxError),
        ("O0+X", GaussSyntaxError),
        # a label below 1 before any chord fault, wherever it sits
        ("O1+U1-O2+O2+O0+U0+", GaussSyntaxError),
        # by ascending label: the lower label's fault is the one reported
        ("O2+U2-O1+O1+", UnbalancedChordError),
        ("O1+U1-O2+O2+", SignMismatchError),
        # one label, both faults: unbalanced before the sign mismatch
        ("O1+O1-", UnbalancedChordError),
        ("O1+U1-O1+", UnbalancedChordError),
    ]

    @pytest.mark.parametrize("code,error", CASES)
    def test_same_error_and_message_as_the_oracle(self, code, error):
        expected = _failure(oracle_parse, code)
        assert expected is not None and expected[0] is error
        assert _failure(parse_gauss_code, code) == expected

    def test_ascending_label_order_is_reported(self):
        assert _failure(parse_gauss_code, "O2+U2-O1+O1+")[1] == (
            "chord 1 must appear exactly once as O and once as U"
        )
        assert _failure(parse_gauss_code, "O1+U1-O2+O2+")[1] == "chord 1 carries both signs"

    @pytest.mark.parametrize(
        "tokens",
        [
            [],
            [[("O", 1, 1), ("O", 0, 1)], [("U", -5, 1)]],
            [[("U", -5, 1)], [("O", 0, 1)]],
            [[("O", 3, 1), ("U", 3, -1), ("O", -1, 1)]],
            [[("O", 1, 1), ("U", 1, 1), ("X", 2, 1), ("U", 2, 1)]],
            [[("O", 1, 1)], [("U", 1, 1)], [("O", 1, 1)]],
        ],
    )
    def test_token_lists_fail_as_in_the_oracle(self, tokens):
        expected = _failure(oracle_from_tokens, tokens)
        assert expected is not None
        assert _failure(from_tokens, tokens) == expected

    def test_labels_below_one_are_reported_in_code_order(self):
        assert _failure(from_tokens, [[("O", 1, 1), ("O", 0, 1)], [("U", -5, 1)]])[1] == (
            "chord label must be positive, got 0"
        )
        assert _failure(from_tokens, [[("U", -5, 1)], [("O", 0, 1)]])[1] == (
            "chord label must be positive, got -5"
        )

    @pytest.mark.parametrize(
        "tokens,message",
        [
            ([[("O", True, 1), ("U", True, 1)]], "chord label must be an int, got True"),
            ([[("O", 1.5, 1), ("U", 1.5, 1)]], "chord label must be an int, got 1.5"),
            ([[("O", "a", 1), ("U", "a", 1)]], "chord label must be an int, got 'a'"),
            ([[("O", 1, 1), ("U", True, 1)]], "chord label must be an int, got True"),
            ([[("O", 1, 2), ("U", 1, 2)]], "chord sign must be 1 or -1, got 2"),
            ([[("O", 1, 0), ("U", 1, 0)]], "chord sign must be 1 or -1, got 0"),
            ([[("O", 1, 1), ("U", 1, True)]], "chord sign must be 1 or -1, got True"),
            ([[("O", 1, 1.0), ("U", 1, 1)]], "chord sign must be 1 or -1, got 1.0"),
            # in code order, the label of a token before its sign
            ([[("O", 1.5, 2), ("U", 1.5, 2)]], "chord label must be an int, got 1.5"),
            ([[("O", 1, 2), ("U", 1, 2)], [("O", "x", 1), ("U", "x", 1)]], "chord sign must be 1 or -1, got 2"),
            ([[("O", "x", 1), ("U", "x", 1)], [("O", 1, 2), ("U", 1, 2)]], "chord label must be an int, got 'x'"),
            # before a label below 1, an unbalanced chord or a sign mismatch
            ([[("O", 0, 1), ("U", 0, 1)], [("O", 2.5, 1), ("U", 2.5, 1)]], "chord label must be an int, got 2.5"),
            ([[("O", 1, 1), ("O", 1, 1), ("O", 2, -2), ("U", 2, -2)]], "chord sign must be 1 or -1, got -2"),
            ([[("O", 1, 1), ("U", 1, -1.0)]], "chord sign must be 1 or -1, got -1.0"),
        ],
    )
    def test_labels_must_be_ints_and_signs_plus_or_minus_one(self, tokens, message):
        # the oracles take any label and sign; these faults come first
        for given in (tokens, [[list(t) for t in comp] for comp in tokens]):
            assert _failure(from_tokens, given) == (GaussSyntaxError, message)


    @pytest.mark.parametrize(
        "tokens,where",
        [
            (["O1+U1+"], (0, 0)),  # a code string per component: its tokens are characters
            ([[("O", 1)]], (0, 0)),
            ([[("O", 1, 1), ("U", 1, 1, 0)]], (0, 1)),
            ([[("O", 1, 1), 7]], (0, 1)),
            ([[("O", [1], 1), ("U", [1], 1)]], (0, 0)),
            ([[("X", [1], 1)]], (0, 0)),
            # in code order, and before every other fault
            ([[("O", 1)], [("U", [2], 1)]], (0, 0)),
            ([[("O", 1.5, 1), ("U", 1.5, 1)], [("O", 2)]], (1, 0)),
            ([[("O", 0, 1), ("U", 0, 2), ("O", 3, 1)], [("O", 2, 1, 5)]], (1, 0)),
        ],
    )
    def test_tokens_that_are_no_triples_are_named(self, tokens, where):
        # each raised ValueError or TypeError from unpacking or hashing
        # and is named as the tuple a diagram would hold
        ci, ti = where
        token = tokens[ci][ti]
        token = tuple(token) if isinstance(token, (str, tuple)) else token
        message = f"token {token!r} in component {ci} is no (kind, label, sign) triple with a hashable label"
        as_lists = [[list(t) if isinstance(t, tuple) else t for t in comp] for comp in tokens]
        for given in (tokens, as_lists):
            assert _failure(from_tokens, given) == (GaussSyntaxError, message)


class TestTupleRecordsOracle:
    """Records built with tuple.__new__, and strand tables reading signs
    from the sign map, against the former builders that called each named
    tuple's own __new__ and read signs through GaussDiagram.chord."""

    @staticmethod
    def _check(code: str) -> GaussDiagram:
        tokens = _tokenize(code)
        d, expected = from_tokens(tokens), named_tuple_from_tokens(tokens)
        table = _build_strand_table(d)
        assert_same_records(table, chord_index_strand_table(expected))
        assert_same_diagram(d, expected)
        return d

    def test_every_code_up_to_three_chords_every_sign(self):
        checked = 0
        for n in range(4):
            for code in enumerate_knot_codes(n):
                for signs in itertools.product("+-", repeat=n):
                    self._check(with_signs(code, signs))
                    checked += 1
        assert checked == 1 + 2 * 2 + 12 * 4 + 120 * 8

    def test_seeded_random_links_up_to_forty_chords(self):
        rng = random.Random(2901)
        sizes = set()
        for _ in range(300):
            code = random_diagram_code(rng, max_chords=40, max_components=3)
            sizes.add(self._check(code).n_components)
        assert sizes == {1, 2, 3}

    @pytest.mark.parametrize("code", [code for code, _ in TestMalformedInputOracle.CASES])
    def test_malformed_codes_fail_as_before(self, code):
        expected = _failure(lambda text: named_tuple_from_tokens(_tokenize(text)), code)
        assert expected is not None
        assert _failure(parse_gauss_code, code) == expected

    @pytest.mark.parametrize(
        "tokens",
        [
            [],
            [[("O", 1, 1), ("O", 0, 1)], [("U", -5, 1)]],
            [[("O", 3, 1), ("U", 3, -1), ("O", -1, 1)]],
            [[("O", 1, 1), ("U", 1, 1), ("X", 2, 1), ("U", 2, 1)]],
            [[("O", 1, 1)], [("U", 1, 1)], [("O", 1, 1)]],
        ],
    )
    def test_malformed_token_lists_fail_as_before(self, tokens):
        expected = _failure(named_tuple_from_tokens, tokens)
        assert expected is not None
        assert _failure(from_tokens, tokens) == expected


def assert_matches_endpoint_oracle(tokens) -> GaussDiagram:
    """The diagram of ``tokens``, its strand table, bridge count, R1
    normalization, Gaussian parity and parity projection equal those of
    the endpoint-building code it replaced.  Components and tokens given
    as tuples or lists give one diagram.  Returns it."""
    d, expected = from_tokens(tokens), endpoint_from_tokens(tokens)
    assert_same_records(strand_table(d), endpoint_strand_table(expected))
    assert bridge_count(d) == endpoint_bridge_count(expected)
    assert_same_diagram(ensure_tail_per_component(d), endpoint_ensure_tail_per_component(expected))
    if d.n_components == 1:
        parity = gaussian_parity(d)
        assert list(parity.items()) == list(endpoint_gaussian_parity(expected).items())
        assert list(parity) == sorted(d.signs)  # ascending by chord id
        assert_same_diagram(parity_projection(d), endpoint_parity_projection(expected))
    assert_same_diagram(d, expected)
    for given in (tuple(tuple(comp) for comp in tokens), [[list(t) for t in comp] for comp in tokens]):
        same = from_tokens(given)
        assert (same, repr(same), hash(same)) == (d, repr(d), hash(d))
    return d


class TestTokenDiagramOracle:
    """The diagram that holds its tokens and a sign map, and everything
    that reads them, against the endpoint-building parser, strand table,
    bridge count, R1 normalization, parity and projection it replaced
    (kept in tests/util.py)."""

    def test_every_knot_code_up_to_four_chords_every_sign(self):
        checked = 0
        for n in range(5):
            for code in enumerate_knot_codes(n):
                for signs in itertools.product("+-", repeat=n):
                    assert_matches_endpoint_oracle(_tokenize(with_signs(code, signs)))
                    checked += 1
        assert checked == 1 + 2 * 2 + 12 * 4 + 120 * 8 + 1680 * 16

    def test_seeded_random_knots_up_to_forty_chords(self):
        rng = random.Random(3301)
        for _ in range(300):
            assert_matches_endpoint_oracle(_tokenize(random_diagram_code(rng, max_chords=40, max_components=1)))

    def test_seeded_random_links_up_to_thirty_two_chords(self):
        rng = random.Random(3302)
        sizes = set()
        for _ in range(300):
            code = random_diagram_code(rng, max_chords=32, max_components=3, min_components=2)
            sizes.add(assert_matches_endpoint_oracle(_tokenize(code)).n_components)
        assert sizes == {2, 3}

    def test_tailless_components(self):
        for code in [".", ".|.", "O1+|U1+", "O1-O2+|U2+U1-|.", "U1+U2-|O2-O1+"]:
            assert_matches_endpoint_oracle(_tokenize(code))

    @pytest.mark.parametrize("code", [code for code, _ in TestMalformedInputOracle.CASES])
    def test_malformed_codes_fail_as_before(self, code):
        expected = _failure(lambda text: endpoint_from_tokens(_tokenize(text)), code)
        assert expected is not None
        assert _failure(parse_gauss_code, code) == expected

    @pytest.mark.parametrize(
        "tokens",
        [
            [],
            [[("O", 1, 1), ("O", 0, 1)], [("U", -5, 1)]],
            [[("U", -5, 1)], [("O", 0, 1)]],
            [[("O", 3, 1), ("U", 3, -1), ("O", -1, 1)]],
            [[("O", 1, 1), ("U", 1, 1), ("X", 2, 1), ("U", 2, 1)]],
            [[("O", 1, 1)], [("U", 1, 1)], [("O", 1, 1)]],
            [[("O", 2, 1), ("U", 2, -1), ("O", 1, 1), ("O", 1, 1)]],
            [[("O", 1, 1), ("U", 1, -1), ("O", 2, 1), ("O", 2, 1)]],
            [[("O", 1, 1), ("O", 1, -1)]],
            [[("O", 1, 1), ("U", 1, 1), ("U", 1, 1)]],
            [[("O", 1, 1), ("U", 2, 1)], [("U", 1, 1), ("O", 2, -1)]],
        ],
    )
    def test_malformed_token_lists_fail_as_before(self, tokens):
        expected = _failure(endpoint_from_tokens, tokens)
        assert expected is not None
        assert _failure(from_tokens, tokens) == expected
        assert _failure(from_tokens, tuple(tuple(comp) for comp in tokens)) == expected
        assert _failure(from_tokens, [[list(t) for t in comp] for comp in tokens]) == expected


class TestStrands:
    def test_six_chord_decomposition(self, d6):
        table = strand_table(d6)
        assert table.n_strands == 6
        tails = [set(s.tails) for s in table.strands]
        assert tails == [{6, 1, 2, 3}, {4}, {5}, set(), set(), set()]

    def test_virtual_trefoil(self, dv):
        table = strand_table(dv)
        assert [s.tails for s in table.strands] == [(1, 2), ()]

    def test_chordless_component_is_one_strand(self):
        table = strand_table(parse_gauss_code("."))
        assert table.n_strands == 1
        assert table.strands[0] == (0, 0, ())

    def test_table_built_once_per_diagram(self, d6):
        assert strand_table(d6) is strand_table(d6)

    def test_table_freed_with_diagram(self):
        d = parse_gauss_code(D6_CODE)
        ref = weakref.ref(d)
        strand_table(d)
        wirtinger_number(d)
        del d
        gc.collect()
        assert ref() is None

    def test_strand_count_matches_heads(self):
        rng = random.Random(7)
        for _ in range(100):
            d = random_diagram(rng)
            table = strand_table(d)
            for ci, comp in enumerate(d.tokens):
                heads = sum(1 for kind, _, _ in comp if kind == "U")
                strands = sum(1 for s in table.strands if s.component == ci)
                assert strands == max(heads, 1)

    def test_incidences_one_per_chord(self, d3):
        table = strand_table(d3)
        assert sorted(i.chord_id for i in table.incidences) == [1, 2, 3]
        # trefoil heads separate three distinct strand pairs
        assert all(i.before != i.after for i in table.incidences)


class TestBridgeCount:
    def test_examples(self, d6, dv):
        assert bridge_count(d6) == 3
        assert bridge_count(dv) == 1
        assert bridge_count(parse_gauss_code(".|.")) == 2

    def test_tailless_component_counts_one(self):
        # the heads-only component is one overbridge, as after its R1 kink
        d = parse_gauss_code("O1+O2+|U1+U2+")
        assert bridge_count(d) == 2 == wirtinger_number(d).omega

    def test_normalization_keeps_the_count_and_omega_stays_below(self):
        rng = random.Random(11)
        for _ in range(3000):
            d = random_diagram(rng, max_chords=6, max_components=3)
            assert bridge_count(d) == bridge_count(ensure_tail_per_component(d))
            assert wirtinger_number(d).omega <= bridge_count(d)

    def test_at_least_components_after_normalization(self):
        rng = random.Random(99)
        for _ in range(150):
            d = ensure_tail_per_component(random_diagram(rng))
            assert bridge_count(d) >= d.n_components


class TestCutSplit:
    def test_kink(self):
        w = cut_split_witness(parse_gauss_code("O1+U1+"))
        assert w is not None and w.kind == "arrowhead" and w.index == 1

    def test_trefoil_is_not(self, d3):
        assert not is_cut_split(d3)

    def test_chordless_component_wins(self):
        w = cut_split_witness(parse_gauss_code(".|O1+U1+"))
        assert w is not None and w.kind == "component" and w.index == 0


class TestNormalization:
    def test_chordless_gets_kink(self):
        assert to_gauss_code(ensure_tail_per_component(parse_gauss_code("."))) == "O1+U1+"

    def test_two_circles(self):
        d = ensure_tail_per_component(parse_gauss_code(".|."))
        assert to_gauss_code(d) == "O1+U1+|O2+U2+"

    def test_heads_only_component(self):
        d = ensure_tail_per_component(parse_gauss_code("O1+|U1+"))
        assert to_gauss_code(d) == "O1+|O2+U2+U1+"
        assert bridge_count(d) == 2

    def test_noop_when_all_components_have_tails(self, d6):
        assert ensure_tail_per_component(d6) is d6

    def test_fresh_labels_do_not_collide(self):
        d = ensure_tail_per_component(parse_gauss_code("O7+|U7+"))
        assert sorted(d.signs) == [7, 8]
