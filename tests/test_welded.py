import itertools
import random

import pytest

from vbridge.batch import PipelineConfig, ResultRecord, analyze
from vbridge.errors import NotAKnotError, NotOneOverbridgeError
from vbridge.gauss import HEAD, TAIL, bridge_count, parse_gauss_code, strand_table, to_gauss_code
from vbridge.welded import (
    UnknottingCertificate,
    WeldedMove,
    is_one_overbridge,
    replay_certificate,
    replay_welded_moves,
    welded_unknot_certificate,
)
from util import (
    enumerate_knot_codes,
    insertion_sort_welded_certificate,
    random_knot,
    random_one_overbridge_code,
    simulating_welded_certificate,
    token_scan_replay_certificate,
    with_signs,
)


class TestIsOneOverbridge:
    def test_examples(self, dv, d3):
        assert is_one_overbridge(dv)
        assert not is_one_overbridge(d3)
        assert is_one_overbridge(parse_gauss_code("."))
        assert is_one_overbridge(parse_gauss_code("O1+U1+"))

    def test_links_rejected(self):
        with pytest.raises(NotAKnotError):
            is_one_overbridge(parse_gauss_code(".|."))


class TestCertificate:
    def test_virtual_trefoil(self, dv):
        cert = welded_unknot_certificate(dv)
        assert cert.initial == "O1+O2+U1+U2+"
        assert cert.final == "."
        assert cert.moves == (
            WeldedMove("swap", at=(0, 1)),
            WeldedMove("r1", chord=1),
            WeldedMove("r1", chord=2),
        )
        assert replay_certificate(cert)

    def test_kink(self):
        cert = welded_unknot_certificate(parse_gauss_code("O1+U1+"))
        assert cert.moves == (WeldedMove("r1", chord=1),)
        assert replay_certificate(cert)

    def test_chordless(self):
        cert = welded_unknot_certificate(parse_gauss_code("."))
        assert cert.moves == ()
        assert cert.final == "."
        assert replay_certificate(cert)

    def test_nested_kinks_need_no_swaps(self):
        cert = welded_unknot_certificate(parse_gauss_code("O1+O2+U2+U1+"))
        assert all(m.kind == "r1" for m in cert.moves)
        assert [m.chord for m in cert.moves] == [2, 1]
        assert replay_certificate(cert)

    def test_rejects_two_overbridges(self, d3):
        with pytest.raises(NotOneOverbridgeError):
            welded_unknot_certificate(d3)

    def test_rejects_exactly_what_is_one_overbridge_rejects(self):
        # the certificate counts the tail runs of its tokens instead of the
        # bridges: every code of at most 4 chords with every sign, seeded
        # random knots and one-overbridge codes, and links
        def diagrams():
            for n_chords in range(5):
                for code in enumerate_knot_codes(n_chords):
                    for signs in itertools.product("+-", repeat=n_chords):
                        yield parse_gauss_code(with_signs(code, signs))
            rng = random.Random(3301)
            for _ in range(300):
                yield random_knot(rng, max_chords=30)
                yield parse_gauss_code(random_one_overbridge_code(rng, max_chords=30))

        accepted = 0
        for d in diagrams():
            if is_one_overbridge(d):
                assert replay_certificate(welded_unknot_certificate(d)), d
                accepted += 1
            else:
                with pytest.raises(NotOneOverbridgeError):
                    welded_unknot_certificate(d)
        assert 1000 < accepted < 27_000
        with pytest.raises(NotAKnotError):
            welded_unknot_certificate(parse_gauss_code("O1+U1+|."))

    def test_move_count_bound(self):
        rng = random.Random(31)
        for _ in range(60):
            d = parse_gauss_code(random_one_overbridge_code(rng, max_chords=9))
            t = d.n_chords
            cert = welded_unknot_certificate(d)
            assert len(cert.moves) <= t * (t - 1) // 2 + t
            assert sum(1 for m in cert.moves if m.kind == "r1") == t

    def test_random_replay(self):
        rng = random.Random(37)
        for _ in range(60):
            d = parse_gauss_code(random_one_overbridge_code(rng))
            cert = welded_unknot_certificate(d)
            assert cert.initial == to_gauss_code(d)
            assert replay_certificate(cert)

    def test_swaps_stay_inside_overbridge(self):
        # every swap exchanges two arrowtails, so the single tail-bearing
        # strand is preserved move by move
        rng = random.Random(41)
        for _ in range(25):
            d = parse_gauss_code(random_one_overbridge_code(rng, max_chords=7))
            cert = welded_unknot_certificate(d)
            tokens = [(kind, label) for kind, label, _ in d.tokens[0]]
            for m in cert.moves:
                if m.kind == "swap":
                    i, j = m.at
                    assert tokens[i][0] == TAIL and tokens[j][0] == TAIL
                    tokens[i], tokens[j] = tokens[j], tokens[i]
                else:
                    tokens = [t for t in tokens if t[1] != m.chord]
                if tokens:
                    code = "".join(f"{k}{c}+" for k, c in tokens)
                    sub = parse_gauss_code(code)
                    assert is_one_overbridge(sub)


class TestPlannedMatchesSimulated:
    """The planned certificate is, move for move, the one the former
    generator produced by carrying out every move (kept in tests/util.py),
    and it replays."""

    @staticmethod
    def _check(d):
        cert = welded_unknot_certificate(d)
        assert cert.to_json() == simulating_welded_certificate(d).to_json(), to_gauss_code(d)
        assert replay_certificate(cert), to_gauss_code(d)

    def test_census_knots(self):
        # every code of at most 4 chords in two seeded sign variants, as the
        # benchmark's census draws them
        rng = random.Random(2104)
        checked = 0
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                for _ in range(2):
                    signs = [rng.choice("+-") for _ in range(n_chords)]
                    d = parse_gauss_code(with_signs(code, signs))
                    if is_one_overbridge(d):
                        self._check(d)
                        checked += 1
        assert checked == 478

    def test_random_knots_up_to_150_chords(self):
        rng = random.Random(2301)
        for _ in range(60):
            self._check(parse_gauss_code(random_one_overbridge_code(rng, max_chords=150)))


class TestPlannerMatchesInsertionSort:
    """The planner that counts each tail's swaps by bisection and copies
    them as a slice gives, move for move, the certificate of the former
    insertion sort (kept in tests/util.py)."""

    @staticmethod
    def _check(d):
        cert = welded_unknot_certificate(d)
        assert cert == insertion_sort_welded_certificate(d), to_gauss_code(d)
        assert cert.to_json() == insertion_sort_welded_certificate(d).to_json()

    def test_every_signed_knot_up_to_4_chords(self):
        checked = 0
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                for signs in itertools.product("+-", repeat=n_chords):
                    d = parse_gauss_code(with_signs(code, signs))
                    if is_one_overbridge(d):
                        self._check(d)
                        checked += 1
        assert checked == 3397

    def test_seeded_knots_of_1_to_150_chords(self):
        rng = random.Random(2801)
        for n_chords in range(1, 151):
            self._check(parse_gauss_code(random_one_overbridge_code(rng, n_chords, n_chords)))


class TestReplayMatchesTokenScan:
    """Finding an r1 chord's two tokens by value and deleting them in place
    gives the verdict of the former replay, which scanned every token
    (kept in tests/util.py), on every certificate and on mutations of it."""

    @staticmethod
    def _mutants(cert, rng):
        moves = list(cert.moves)
        length = cert.initial.count("O") + cert.initial.count("U")
        top = max((m.chord for m in moves if m.kind == "r1"), default=0)
        positions = [(0, 2), (length - 1, 0), (length, length + 1), (-1, 0), ("0", "1"), (0.0, 1.0)]
        positions += [(False, True), (True, 2), 7, None]
        bad = [WeldedMove("swap", at=at) for at in positions]
        bad += [WeldedMove("r1", chord=c) for c in (top + 1, 0, -1, "1", 1.0, True, [1], None)]
        bad.append(WeldedMove("detour", at=(0, 1)))
        yield cert._replace(final="O1+U1+")
        if not moves:
            return
        i = rng.randrange(len(moves))
        for move in bad:
            yield cert._replace(moves=tuple(moves[:i] + [move] + moves[i + 1 :]))
            yield cert._replace(moves=tuple(moves[:i] + [move] + moves[i:]))
        yield cert._replace(moves=tuple(moves[:i] + moves[i + 1 :]))
        yield cert._replace(moves=tuple(moves[: i + 1] + moves[i:]))
        # the last kink peeled first, before its swaps make it adjacent
        yield cert._replace(moves=(moves[-1],) + tuple(moves[:-1]))

    def _check(self, d, rng, verdicts):
        cert = welded_unknot_certificate(d)
        assert replay_certificate(cert) == token_scan_replay_certificate(cert) == (True, None)
        for mutant in self._mutants(cert, rng):
            r = replay_certificate(mutant)
            assert r == token_scan_replay_certificate(mutant), mutant
            verdicts.add(r.ok if r.failed_at is None else "move")

    def test_census_knots(self):
        rng = random.Random(2503)
        verdicts = set()
        checked = 0
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                for _ in range(2):
                    signs = [rng.choice("+-") for _ in range(n_chords)]
                    d = parse_gauss_code(with_signs(code, signs))
                    if is_one_overbridge(d):
                        self._check(d, rng, verdicts)
                        checked += 1
        assert checked == 478
        assert verdicts == {True, False, "move"}

    def test_random_knots_up_to_150_chords(self):
        rng = random.Random(2504)
        verdicts = set()
        for _ in range(60):
            self._check(parse_gauss_code(random_one_overbridge_code(rng, max_chords=150)), rng, verdicts)
        assert verdicts == {True, False, "move"}


class TestRecordMatchesCertificateRoundTrip:
    """A batch record replays the planned moves on the diagram's own tokens;
    its verdict and its --certificates JSON equal those of the certificate
    formatted by welded_unknot_certificate and parsed back by
    replay_certificate."""

    CONFIG = PipelineConfig(analyses=frozenset({"welded"}), certificates=True)

    def _check(self, d):
        cert = welded_unknot_certificate(d)
        rec = analyze(d, self.CONFIG, ResultRecord(to_gauss_code(d)))
        assert rec.welded_unknot is bool(replay_certificate(cert)) is True, cert.initial
        assert rec.certificates["welded"] == cert.to_json_dict(), cert.initial
        assert replay_welded_moves(list(d.tokens[0]), d.signs, cert.moves) == replay_certificate(cert)

    def test_every_signed_knot_of_bridge_number_one_up_to_4_chords(self):
        checked = 0
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                for signs in itertools.product("+-", repeat=n_chords):
                    d = parse_gauss_code(with_signs(code, signs))
                    if bridge_count(d) == 1:
                        self._check(d)
                        checked += 1
        assert checked == 3397

    def test_seeded_one_overbridge_knots_up_to_100_chords(self):
        rng = random.Random(3501)
        for _ in range(40):
            self._check(parse_gauss_code(random_one_overbridge_code(rng, max_chords=100)))


class TestTamperedMovesFailAlikeThroughBothEntryPoints:
    """A tampered move list fails at the same index through
    replay_certificate and through the replay core on the diagram's own
    tokens, which batch records use."""

    @staticmethod
    def _tampered(d, moves, rng):
        # (index, move) pairs, each move illegal at that index of the
        # certificate's moves with the move inserted there
        i = rng.randrange(len(moves) + 1)
        tokens = list(d.tokens[0])
        assert replay_welded_moves(tokens, d.signs, moves[:i]).failed_at is None
        length = len(tokens)
        yield i, WeldedMove("swap", at=(True, 2))
        yield i, WeldedMove("swap", at=(0, 2))  # never adjacent
        if tokens:  # a tail that a head follows: a swap onto the head
            p = next(p for p in range(length) if tokens[p][0] == TAIL and tokens[(p + 1) % length][0] == HEAD)
            yield i, WeldedMove("swap", at=(p, (p + 1) % length))
        yield i, WeldedMove("r1", chord=max(d.signs) + 1)  # unknown
        peeled = [j for j, m in enumerate(moves) if m.kind == "r1"]
        j = peeled[rng.randrange(len(peeled))]
        yield j + 1, moves[j]  # already peeled

    def _check(self, d, rng):
        cert = welded_unknot_certificate(d)
        moves = cert.moves
        for i, move in self._tampered(d, moves, rng):
            bad = moves[:i] + (move,) + moves[i:]
            through_cert = replay_certificate(cert._replace(moves=bad))
            through_tokens = replay_welded_moves(list(d.tokens[0]), d.signs, bad)
            assert through_cert == through_tokens == (False, i), (cert.initial, i, move)
        r = replay_certificate(cert._replace(final="O1+U1+"))
        assert not r and r.failed_at is None
        assert replay_welded_moves(list(d.tokens[0]), d.signs, moves)

    def test_census_knots(self):
        rng = random.Random(3502)
        checked = 0
        for n_chords in range(1, 5):
            for code in enumerate_knot_codes(n_chords):
                signs = [rng.choice("+-") for _ in range(n_chords)]
                d = parse_gauss_code(with_signs(code, signs))
                if is_one_overbridge(d):
                    self._check(d, rng)
                    checked += 1
        assert checked == 238

    def test_seeded_one_overbridge_knots_up_to_100_chords(self):
        rng = random.Random(3503)
        for _ in range(40):
            self._check(parse_gauss_code(random_one_overbridge_code(rng, max_chords=100)), rng)


class TestReplayRejections:
    def _cert(self, dv):
        return welded_unknot_certificate(dv)

    def test_tampered_final(self, dv):
        cert = self._cert(dv)
        bad = UnknottingCertificate(cert.initial, cert.moves, "O9+U9+")
        r = replay_certificate(bad)
        assert not r and r.failed_at is None

    def test_dropped_move(self, dv):
        cert = self._cert(dv)
        bad = UnknottingCertificate(cert.initial, cert.moves[:-1], cert.final)
        r = replay_certificate(bad)
        assert not r and r.failed_at is None

    def test_swap_of_non_tails(self, dv):
        cert = self._cert(dv)
        moves = (WeldedMove("swap", at=(1, 2)),) + cert.moves[1:]
        r = replay_certificate(UnknottingCertificate(cert.initial, moves, "."))
        assert not r and r.failed_at == 0

    def test_nonadjacent_swap(self, dv):
        moves = (WeldedMove("swap", at=(0, 2)),)
        r = replay_certificate(UnknottingCertificate("O1+O2+U1+U2+", moves, "."))
        assert not r and r.failed_at == 0

    def test_premature_r1(self, dv):
        # chord 1's endpoints are not adjacent before the swap
        moves = (WeldedMove("r1", chord=1),)
        r = replay_certificate(UnknottingCertificate("O1+O2+U1+U2+", moves, "."))
        assert not r and r.failed_at == 0

    def test_unknown_chord(self):
        moves = (WeldedMove("r1", chord=9),)
        r = replay_certificate(UnknottingCertificate("O1+U1+", moves, "."))
        assert not r and r.failed_at == 0

    def test_unknown_kind(self):
        moves = (WeldedMove("detour", at=(0, 1)),)
        r = replay_certificate(UnknottingCertificate("O1+U1+", moves, "."))
        assert not r and r.failed_at == 0

    def test_swap_that_is_not_a_pair(self):
        for at in ([0], [0, 1, 2]):
            cert = UnknottingCertificate.from_json_dict(
                {"initial": "O1+O2+U1+U2+", "moves": [{"kind": "swap", "at": at}], "final": "."}
            )
            r = replay_certificate(cert)
            assert not r and r.failed_at == 0, at

    def test_swap_of_non_integer_positions(self):
        # string positions compare with nothing, so the move is illegal
        for at in (("0", "1"), (0.0, 1.0), 7, None):
            cert = UnknottingCertificate("O1+O2+U1+U2+", (WeldedMove("swap", at=at),), ".")
            r = replay_certificate(cert)
            assert not r and r.failed_at == 0, at

    def test_bool_positions_and_chords_fail_at_their_own_index(self, dv):
        # True == 1 and False == 0, so compared by value these moves would
        # read as the certificate's own swap (0, 1) and r1 of chord 1
        cert = self._cert(dv)
        assert cert.moves[:2] == (WeldedMove("swap", at=(0, 1)), WeldedMove("r1", chord=1))
        for i, move in [
            (0, WeldedMove("swap", at=(False, True))),
            (0, WeldedMove("swap", at=(True, 2))),
            (1, WeldedMove("r1", chord=True)),
        ]:
            moves = cert.moves[:i] + (move,) + cert.moves[i + 1 :]
            r = replay_certificate(cert._replace(moves=moves))
            assert not r and r.failed_at == i, move
        # positions 1 and 2 hold two arrowtails here, so only the type fails
        r = replay_certificate(UnknottingCertificate("O1+O2+O3+U1+U2+U3+", (WeldedMove("swap", at=(True, 2)),), "."))
        assert not r and r.failed_at == 0

    def test_move_that_is_no_welded_move(self):
        for move in ({"kind": "r1", "chord": 1}, ("r1", None, 1), None):
            r = replay_certificate(UnknottingCertificate("O1+U1+", (move,), "."))
            assert not r and r.failed_at == 0, move

    def test_bad_initial(self):
        r = replay_certificate(UnknottingCertificate("O1+", (), "."))
        assert not r and r.failed_at is None

    def test_link_initial(self):
        r = replay_certificate(UnknottingCertificate(".|.", (), "."))
        assert not r and r.failed_at is None


class TestJsonRoundtrip:
    def test_roundtrip(self, dv):
        cert = welded_unknot_certificate(dv)
        again = UnknottingCertificate.from_json(cert.to_json())
        assert again == cert
        assert replay_certificate(again)

    def test_json_shape(self, dv):
        data = welded_unknot_certificate(dv).to_json_dict()
        assert data == {
            "initial": "O1+O2+U1+U2+",
            "moves": [
                {"kind": "swap", "at": [0, 1]},
                {"kind": "r1", "chord": 1},
                {"kind": "r1", "chord": 2},
            ],
            "final": ".",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            UnknottingCertificate.from_json_dict(
                {"initial": ".", "moves": [{"kind": "slide"}], "final": "."}
            )

    def test_malformed_moves_rejected(self):
        # a move without a kind, positions that are no list, a chord that
        # is no number, a move that is no object: each a ValueError, like a
        # missing field; so are positions and chords that int() would
        # coerce into a legal move, as the coloring sequence's loader does
        moves = ({"at": [0, 1]}, {"kind": "swap", "at": 7}, {"kind": "r1", "chord": None}, 7, "swap")
        moves += (
            {"kind": "swap", "at": "01"},
            {"kind": "swap", "at": [0.9, "1"]},
            {"kind": "r1", "chord": 1.5},
            {"kind": "r1", "chord": True},
        )
        for move in moves:
            with pytest.raises(ValueError):
                UnknottingCertificate.from_json_dict(
                    {"initial": "O1+O2+U1+U2+", "moves": [move], "final": "."}
                )

    def test_missing_field_rejected(self):
        for move in ({"kind": "swap"}, {"kind": "r1"}, {"kind": "r1", "at": [0, 1]}):
            with pytest.raises(ValueError):
                UnknottingCertificate.from_json_dict(
                    {"initial": "O1+U1+", "moves": [move], "final": "."}
                )

    def test_malformed_certificate_rejected(self, dv):
        # a missing key, moves that are no list of moves, a code that is no
        # string, or no object at all: each a ValueError, like a bad move
        data = welded_unknot_certificate(dv).to_json_dict()
        cases = [{k: v for k, v in data.items() if k != key} for key in data]
        cases += [{**data, "moves": 5}, {**data, "moves": None}, {**data, "moves": "swap"}]
        cases += [{**data, "initial": 5}, {**data, "final": None}, None, [], "."]
        for case in cases:
            with pytest.raises(ValueError):
                UnknottingCertificate.from_json_dict(case)


class TestMoveRecords:
    def test_moves_are_tuples_with_defaults(self, dv):
        swap, r1 = WeldedMove("swap", at=(0, 1)), WeldedMove("r1", chord=2)
        assert swap == ("swap", (0, 1), None) and r1 == ("r1", None, 2)
        assert swap._fields == ("kind", "at", "chord")
        assert r1._replace(chord=1) == WeldedMove("r1", chord=1)
        assert [m.to_json_dict() for m in (swap, r1)] == [
            {"kind": "swap", "at": [0, 1]},
            {"kind": "r1", "chord": 2},
        ]
        cert = welded_unknot_certificate(dv)
        assert all(type(m) is WeldedMove for m in cert.moves)
        with pytest.raises(AttributeError):
            swap.at = (1, 2)
