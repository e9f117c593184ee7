"""The library's records are named tuples: read-only, picklable and equal
to the tuple of their fields, with their own methods and truth values."""

import pickle

import pytest

from vbridge.batch import TableEntry, TableProblem
from vbridge.gauss import strand_table
from vbridge.linkgroup import alexander_matrix
from vbridge.quandle import FiniteQuandle, dihedral_quandle
from vbridge.search import (
    VerifyResult,
    WirtingerResult,
    apply_coloring_moves,
    low_tail_chords,
    verify_coloring_sequence,
    wirtinger_number,
)
from vbridge.welded import welded_unknot_certificate


@pytest.fixture(scope="module")
def records(dl, dv):
    result = wirtinger_number(dl)
    sequence = apply_coloring_moves(dl, [0])
    report = low_tail_chords(dl, result.sequence)
    return (
        TableEntry("k", "O1+U1+", 1),
        TableProblem(2, "empty name or code"),
        strand_table(dl),
        alexander_matrix(dl),
        dihedral_quandle(3),
        sequence,
        verify_coloring_sequence(dl, sequence),
        result,
        report.entries[0],
        report,
        welded_unknot_certificate(dv),
    )


def test_every_record_is_a_read_only_tuple(records):
    assert len({type(r) for r in records}) == 11
    for record in records:
        assert isinstance(record, tuple) and record == tuple(record)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)


def test_records_unpack_and_replace(dl):
    omega, seed_set, sequence, stats = result = wirtinger_number(dl)
    assert (omega, seed_set) == (1, sequence.seeds)
    assert result._replace(omega=2) == (2, seed_set, sequence, stats)
    assert WirtingerResult._fields == ("omega", "seed_set", "sequence", "stats")


def test_verify_result_is_truthy_only_when_ok():
    assert not VerifyResult(False, 3) and not VerifyResult(False)
    assert VerifyResult(True) and VerifyResult(True, None) == (True, None)


def test_pool_records_pickle(dl):
    # the worker pool ships entries and quandles out and results back
    for record in (TableEntry("k", "O1+U1+", 1), dihedral_quandle(5), wirtinger_number(dl)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


def test_quandle_order_is_the_table_size():
    q = dihedral_quandle(5)
    assert q.order == 5 and len(q) == 3
    assert FiniteQuandle(q.table, q.inverse).order == 5

