"""End-to-end checks of the package's external guarantees.

Each test covers one advertised behavior and prints a single [PASS]/[FAIL]
line; run with ``pytest tests/test_acceptance.py -s -v`` to see them all.
"""

import json
import random
import time

import pytest

from vbridge.batch import CSV_COLUMNS
from vbridge.cli import main
from vbridge.gauss import (
    bridge_count,
    ensure_tail_per_component,
    parse_gauss_code,
    strand_table,
    to_gauss_code,
)
from vbridge.linkgroup import _minor_determinants, alexander_matrix, ideal_lower_bound
from vbridge.parity import parity_projection
from vbridge.quandle import count_colorings, dihedral_quandle, trivial_quandle
from vbridge.search import (
    saturated_strands,
    verify_coloring_sequence,
    wirtinger_number,
)
from vbridge.welded import replay_certificate, welded_unknot_certificate
from conftest import D3_CODE, D6_CODE, DV_CODE
from test_batch import DATA
from util import (
    LaurentPolynomial,
    brute_force_omega,
    enumerate_knot_codes,
    properness_certificate,
    random_diagram,
    random_one_overbridge_code,
    row_sums_at_one,
    shuffled_closure,
)

EXHAUSTIVE_COUNTS = {0: 1, 1: 2, 2: 12, 3: 120, 4: 1680, 5: 30240}


def report(line: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(99)
    return [
        ensure_tail_per_component(random_diagram(rng, max_chords=10))
        for _ in range(1000)
    ]


@pytest.fixture(scope="module")
def corpus_results(corpus):
    return [wirtinger_number(d) for d in corpus]


def test_six_crossing_example_is_one_bridge():
    d = parse_gauss_code(D6_CODE)
    start = time.perf_counter()
    result = wirtinger_number(d)
    elapsed = time.perf_counter() - start
    verified = bool(verify_coloring_sequence(d, result.sequence))
    report(
        f"six-crossing example: omega={result.omega} (want 1), "
        f"sequence verified={verified}, {elapsed:.3f}s < 1s",
        result.omega == 1 and verified and elapsed < 1.0,
    )


def test_search_matches_brute_force_oracle():
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    for n_chords, expected in EXHAUSTIVE_COUNTS.items():
        seen = 0
        for code in enumerate_knot_codes(n_chords):
            d = parse_gauss_code(code)
            result = wirtinger_number(d)
            omega, seeds = brute_force_omega(d)
            if result.omega != omega or result.seed_set != seeds:
                mismatches += 1
            seen += 1
        assert seen == expected, f"{n_chords}-chord enumeration incomplete"
        checked += seen
    assert checked == 32055
    rng = random.Random(2024)
    sampled = 0
    while sampled < 200:
        d = random_diagram(rng, max_chords=5, max_components=2)
        if d.n_components != 2:
            continue
        result = wirtinger_number(d)
        omega, seeds = brute_force_omega(d)
        if result.omega != omega or result.seed_set != seeds:
            mismatches += 1
        sampled += 1
    elapsed = time.perf_counter() - start
    report(
        f"oracle equivalence: {checked} exhaustive + {sampled} random diagrams, "
        f"{mismatches} mismatches, {elapsed:.1f}s < 300s",
        mismatches == 0 and elapsed < 300.0,
    )


def test_saturation_is_order_independent(corpus):
    rng = random.Random(7)
    disagreements = 0
    for d in corpus:
        n = strand_table(d).n_strands
        seeds = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
        reference = saturated_strands(d, seeds)
        for trial in range(10):
            if shuffled_closure(d, seeds, random.Random(trial)) != reference:
                disagreements += 1
    report(
        f"confluence: {len(corpus)} diagrams x 10 scan orders, "
        f"{disagreements} disagreements",
        disagreements == 0,
    )


def test_overbridge_seeds_bound_the_search(corpus, corpus_results):
    violations = 0
    for d, result in zip(corpus, corpus_results):
        table = strand_table(d)
        overbridges = [s.id for s in table.strands if s.tails]
        if len(saturated_strands(d, overbridges)) != table.n_strands:
            violations += 1
        if result.omega > bridge_count(d):
            violations += 1
    report(
        f"overbridge seeding: {len(corpus)} diagrams, all colored and "
        f"omega <= bridge count, {violations} violations",
        violations == 0,
    )


def test_quandle_counts_are_sandwiched(corpus, corpus_results):
    quandles = [trivial_quandle(2), trivial_quandle(3), dihedral_quandle(3)]
    violations = 0
    for d, result in zip(corpus, corpus_results):
        for q in quandles:
            count = count_colorings(d, q, result=result)
            if not q.order <= count <= q.order ** result.omega:
                violations += 1
    trefoil_count = count_colorings(parse_gauss_code(D3_CODE), dihedral_quandle(3))
    d6_count = count_colorings(parse_gauss_code(D6_CODE), dihedral_quandle(3))
    report(
        f"quandle sandwich: {len(corpus)}x{len(quandles)} counts in range "
        f"({violations} violations), trefoil R3 count={trefoil_count} (want 9), "
        f"six-crossing R3 count={d6_count} (want 3)",
        violations == 0 and trefoil_count == 9 and d6_count == 3,
    )


def test_fox_calculus_matrix_and_bounds(corpus):
    bad_rows = 0
    checked_rows = 0
    for d in [parse_gauss_code(D3_CODE), parse_gauss_code(DV_CODE)] + [
        c for c in corpus if c.n_components == 1
    ]:
        matrix = alexander_matrix(d)
        for s in row_sums_at_one(matrix):
            checked_rows += 1
            if s != 0:
                bad_rows += 1
    trefoil_matrix = alexander_matrix(parse_gauss_code(D3_CODE))
    minors = _minor_determinants(trefoil_matrix.rows, 2)
    minor_values = sorted({abs(LaurentPolynomial(m).evaluate_unit(-1)) for m in minors})
    witness = properness_certificate(
        [LaurentPolynomial({1: 1, 0: 1}), LaurentPolynomial({0: 3})]
    )
    bound = ideal_lower_bound(parse_gauss_code(D3_CODE))
    report(
        f"fox calculus: {checked_rows} row sums vanish at t=1 ({bad_rows} bad), "
        f"trefoil 2x2 minors at t=-1 have |value|={minor_values} (want [3]), "
        f"certificate for (t+1, 3)={witness} (want (3, 2)), "
        f"trefoil ideal bound and witness={tuple(bound)} (want (2, (3, 2, 2)))",
        bad_rows == 0
        and minor_values == [3]
        and witness == (3, 2)
        and bound == (2, (3, 2, 2)),
    )


def test_parity_projection_fixes_classical_diagrams(corpus):
    trefoil = parse_gauss_code(D3_CODE)
    trefoil_fixed = to_gauss_code(parity_projection(trefoil)) == D3_CODE
    virtual = to_gauss_code(parity_projection(parse_gauss_code(DV_CODE))) == "."
    invalid = 0
    projected = 0
    for d in corpus:
        if d.n_components != 1:
            continue
        projected += 1
        p = parity_projection(d)
        try:
            again = parse_gauss_code(to_gauss_code(p))
        except Exception:
            invalid += 1
            continue
        if to_gauss_code(again) != to_gauss_code(p):
            invalid += 1
    report(
        f"parity projection: trefoil fixed={trefoil_fixed}, virtual trefoil "
        f"erased={virtual}, {projected} corpus projections revalidate "
        f"({invalid} invalid)",
        trefoil_fixed and virtual and invalid == 0,
    )


def test_one_overbridge_diagrams_unknot():
    rng = random.Random(55)
    failures = 0
    for _ in range(500):
        d = parse_gauss_code(random_one_overbridge_code(rng, max_chords=10))
        t = d.n_chords
        cert = welded_unknot_certificate(d)
        ok = (
            cert.final == "."
            and bool(replay_certificate(cert))
            and len(cert.moves) <= t * (t - 1) // 2 + t
        )
        if not ok:
            failures += 1
    report(
        f"welded unknotting: 500 one-overbridge diagrams reduced to the "
        f"chordless circle with verified certificates, {failures} failures",
        failures == 0,
    )


def test_batch_table_processes_deterministically(capsys):
    outputs = {}
    codes = {}
    for jobs in ("1", "8"):
        codes[jobs] = main(["batch", "--jobs", jobs, DATA])
        outputs[jobs] = capsys.readouterr().out
    identical = outputs["1"] == outputs["8"]
    lines = outputs["1"].splitlines()
    header_ok = lines[0] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    statuses = {row[9] for row in rows}
    invariant_bad = 0
    for row in rows:
        if row[9] != "ok":
            continue
        vb, omega, ideal = row[4], row[5], row[7]
        if int(omega) > int(vb):
            invariant_bad += 1
        if ideal and int(ideal) > int(omega):
            invariant_bad += 1
    report(
        f"batch pipeline: 20-entry table, exit codes {set(codes.values())} "
        f"(want {{0}}), jobs 1 vs 8 byte-identical={identical}, header "
        f"ok={header_ok}, statuses={statuses}, {len(rows)} rows, "
        f"{invariant_bad} invariant violations",
        set(codes.values()) == {0}
        and identical
        and header_ok
        and len(rows) == 20
        and statuses == {"ok"}
        and invariant_bad == 0,
    )
