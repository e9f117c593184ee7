import dataclasses
import gc
import itertools
import json
import os
import random
import re
import time
import weakref

import pytest

from vbridge import batch, parity, search
from vbridge.batch import (
    CSV_COLUMNS,
    PipelineConfig,
    ResultRecord,
    TableEntry,
    ingest_table,
    render_results,
    run_pipeline,
    write_results,
)
from vbridge.errors import SearchExhaustedError
from vbridge.gauss import GaussDiagram, ensure_tail_per_component, is_cut_split, parse_gauss_code, strand_table, to_gauss_code
from vbridge.quandle import dihedral_quandle, trivial_quandle, validate_quandle
from vbridge.search import (
    ColoringSequence,
    SearchStats,
    verify_coloring_sequence,
    verify_height_certificate,
    wirtinger_number,
)
from vbridge.welded import UnknottingCertificate, replay_certificate
from util import (
    assert_same_records,
    cell_render_results,
    enumerate_knot_codes,
    random_diagram,
    random_diagram_code,
    random_knot,
    replacing_relabel,
    with_signs,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "sample_table.tsv")


@pytest.fixture(scope="module")
def records():
    entries, _ = ingest_table(DATA)
    cfg = PipelineConfig(quandles=(dihedral_quandle(3),))
    return {r.name: r for r in run_pipeline(entries, cfg)}


class TestIngest:
    def test_sample_table(self):
        entries, problems = ingest_table(DATA)
        assert problems == []
        assert len(entries) == 20
        assert entries[0] == TableEntry("unknot", ".", 3)
        assert entries[4].name == "k6"
        assert len({e.name for e in entries}) == 20

    def test_problem_lines(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text(
            "# comment\n"
            "\n"
            "good\tO1+U1+\n"
            "no tab here\n"
            "\tO1+U1+\n"
            "good\t.\n"
            "also_good\t.\n"
        )
        entries, problems = ingest_table(path)
        assert [e.name for e in entries] == ["good", "also_good"]
        assert [p.line for p in problems] == [4, 5, 6]
        assert "duplicate" in problems[2].message

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_table(tmp_path / "nope.tsv")


class TestPipeline:
    def test_all_ok(self, records):
        assert all(r.status == "ok" for r in records.values())

    def test_trefoil_row(self, records):
        r = records["trefoil"]
        assert (r.components, r.chords, r.strands) == (1, 3, 3)
        assert (r.vb_d, r.omega_d, r.seed_set) == (3, 2, (0, 1))
        assert (r.ideal_lb, r.parity_lb) == (2, 2)
        assert r.quandle_counts == {"R3": 9}
        assert r.welded_unknot is None  # three overbridges

    def test_k6_row(self, records):
        r = records["k6"]
        assert (r.components, r.chords, r.strands) == (1, 6, 6)
        assert (r.vb_d, r.omega_d, r.seed_set) == (3, 1, (0,))
        assert r.quandle_counts == {"R3": 3}

    def test_unknot_normalized(self, records):
        # "." gains a kink during normalization, stats describe the result
        r = records["unknot"]
        assert (r.components, r.chords, r.strands, r.vb_d, r.omega_d) == (1, 1, 1, 1, 1)
        assert r.welded_unknot is True

    def test_link_row_skips_knot_analyses(self, records):
        r = records["unlink2"]
        assert (r.components, r.chords, r.omega_d) == (2, 2, 2)
        assert r.ideal_lb is None and r.parity_lb is None
        assert r.welded_unknot is None
        assert r.quandle_counts == {"R3": 9}

    def test_one_bridge_count_per_record(self, monkeypatch):
        # vb_d == 1 is the one-overbridge test on a knot, so neither the
        # welded branch nor the certificate counts the bridges again
        from vbridge import gauss, welded

        calls = []

        def counted(d):
            calls.append(d)
            return gauss.bridge_count(d)

        for module in (batch, welded):
            monkeypatch.setattr(module, "bridge_count", counted)
        for code, one in (("O1+O2+U1+U2+", True), ("O1-O2+O3-U2+U1-U3-", True), (TREFOIL, False)):
            rec = batch.analyze(parse_gauss_code(code), PipelineConfig(certificates=True), ResultRecord(code))
            assert len(calls) == 1 and (rec.vb_d == 1) is one, code
            assert rec.welded_unknot is (True if one else None), code
            assert ("welded" in rec.certificates) is one, code
            calls.clear()

    def test_invariant_holds(self, records):
        for r in records.values():
            assert r.omega_d <= r.vb_d
            if r.ideal_lb is not None:
                assert r.ideal_lb <= r.omega_d

    def test_bounds_agree_with_direct_calls(self, records):
        from vbridge.gauss import GaussDiagram, ensure_tail_per_component, parse_gauss_code
        from vbridge.parity import parity_lower_bound

        entries, _ = ingest_table(DATA)
        for e in entries:
            r = records[e.name]
            if r.parity_lb is None:
                continue
            d = ensure_tail_per_component(parse_gauss_code(e.code))
            assert r.parity_lb == parity_lower_bound(d).bound

    def test_parse_error_record(self):
        recs = run_pipeline([TableEntry("oops", "O1+", 1)])
        [r] = recs
        assert r.status_text == "error(parse)"
        assert r.components is None and r.omega_d is None
        [data] = json.loads(render_results(recs, "json"))
        assert data["subsets_examined"] is None and data["saturation_steps"] is None

    def test_timeout_record(self):
        recs = run_pipeline(
            [TableEntry("slow", "O1-U2-O3-U1-O2-U3-", 1)],
            PipelineConfig(time_limit=0.0),
        )
        assert recs[0].status_text == "timeout"

    def test_analysis_skipped_for_time_is_a_timeout(self, monkeypatch):
        real = batch.ideal_lower_bound

        def slow_ideal(*args, deadline=None, **kwargs):
            # a bound that finishes after the deadline instead of stopping
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "ideal_lower_bound", slow_ideal)
        [r] = run_pipeline(
            [TableEntry("t", "O1-U2-O3-U1-O2-U3-", 1)],
            PipelineConfig(time_limit=0.1),
        )
        assert r.status_text == "timeout"
        # the fields computed before the deadline are kept
        assert (r.vb_d, r.omega_d, r.ideal_lb) == (3, 2, 2)
        assert r.parity_lb is None

    def test_bounds_get_the_entry_deadline(self, monkeypatch):
        deadlines = {}

        def recorder(name, real):
            def stage(*args, deadline=None, **kwargs):
                deadlines[name] = deadline
                return real(*args, deadline=deadline, **kwargs)

            return stage

        monkeypatch.setattr(batch, "wirtinger_number", recorder("search", batch.wirtinger_number))
        monkeypatch.setattr(batch, "ideal_lower_bound", recorder("ideal", batch.ideal_lower_bound))
        monkeypatch.setattr(batch, "parity_lower_bound", recorder("parity", batch.parity_lower_bound))
        before = time.perf_counter()
        [r] = run_pipeline([TableEntry("t", "O1-U2-O3-U1-O2-U3-", 1)], PipelineConfig(time_limit=60))
        assert r.status == "ok"
        # one absolute deadline for every stage, not the time left
        assert deadlines["search"] == deadlines["ideal"] == deadlines["parity"]
        assert before + 60 <= deadlines["search"] <= time.perf_counter() + 60
        [r] = run_pipeline([TableEntry("t", "O1-U2-O3-U1-O2-U3-", 1)])
        assert deadlines == {"search": None, "ideal": None, "parity": None}

    def test_bounds_reuse_the_search(self, monkeypatch):
        # one search per record: both bounds rank the presentation on its
        # seeds, so neither takes seeds of its own
        def seeds(*args, **kwargs):
            raise AssertionError("the bounds must rank the search's seeds")

        monkeypatch.setattr("vbridge.linkgroup.reduced_seed_set", seeds)
        monkeypatch.setattr("vbridge.parity.reduced_seed_set", seeds)
        entries, _ = ingest_table(DATA)
        records = run_pipeline(entries)
        knots = [r for r in records if r.components == 1]
        assert len(knots) > 10 and all(r.status == "ok" for r in knots)
        assert any(r.parity_lb == 2 for r in knots)

    def test_parity_reuses_the_ideal_bound_of_an_even_knot(self, monkeypatch):
        real = batch.ideal_lower_bound
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "ideal_lower_bound", counted)
        monkeypatch.setattr(parity, "ideal_lower_bound", counted)
        # classical trefoil: every chord even, so the knot is its own projection
        [r] = run_pipeline([TableEntry("t", "O1-U2-O3-U1-O2-U3-", 1)])
        assert len(calls) == 1
        assert r.parity_lb == r.ideal_lb == 2
        assert r.parity_lb == parity.parity_lower_bound(calls[0]).bound
        # odd chords: the projection is bounded on the images of the
        # search's seeds, not through a second ideal_lower_bound call
        calls.clear()
        [r] = run_pipeline([TableEntry("v", "O1+O2+U1+U2+", 1)])
        assert len(calls) == 1 and r.parity_lb == 1
        calls.clear()
        [r] = run_pipeline([TableEntry("o", "O5+O4-U2+U1-O3-U5+O1-U3-O2+U4-", 1)])
        assert len(calls) == 1 and (r.omega_d, r.ideal_lb, r.parity_lb) == (2, 2, 2)
        # without the ideal stage the parity stage computes the bound itself
        calls.clear()
        [r] = run_pipeline(
            [TableEntry("t", "O1-U2-O3-U1-O2-U3-", 1)],
            PipelineConfig(analyses=frozenset({"parity"})),
        )
        assert len(calls) == 1 and (r.ideal_lb, r.parity_lb) == (None, 2)

    def test_no_quandle_count_starts_past_the_deadline(self, monkeypatch):
        real = batch.count_colorings
        calls = []

        def slow_count(d, q, **kwargs):
            calls.append(q.name)
            time.sleep(0.2)
            return real(d, q, **kwargs)

        monkeypatch.setattr(batch, "count_colorings", slow_count)
        cfg = PipelineConfig(
            time_limit=0.1,
            analyses=frozenset(),
            quandles=(dihedral_quandle(3), trivial_quandle(3)),
        )
        rec = batch.ResultRecord("t")
        with pytest.raises(batch.SearchTimeoutError):
            batch.analyze(parse_gauss_code("O1-U2-O3-U1-O2-U3-"), cfg, rec)
        # the first count ran past the deadline; the second never started
        assert calls == ["R3"]
        assert rec.quandle_counts == {"R3": 9}

    def test_diagrams_freed_after_run(self, monkeypatch):
        refs = []
        real = batch.ensure_tail_per_component

        def keep_ref(d):
            out = real(d)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(batch, "ensure_tail_per_component", keep_ref)
        # fresh diagrams: an equal diagram analyzed earlier must not hide a leak
        rng = random.Random(5150)
        entries = [
            TableEntry(f"k{i}", to_gauss_code(random_knot(rng, max_chords=6, min_chords=4)), i)
            for i in range(10)
        ]
        run_pipeline(entries, PipelineConfig(quandles=(dihedral_quandle(3),)))
        gc.collect()
        assert len(refs) == len(entries)
        assert all(ref() is None for ref in refs)

    def test_analyze_keeps_the_fields_filled_before_a_failure(self):
        rec = batch.ResultRecord("capped")
        with pytest.raises(SearchExhaustedError):
            batch.analyze(parse_gauss_code("O1-U2-O3-U1-O2-U3-"), PipelineConfig(max_k=1), rec)
        assert (rec.components, rec.strands, rec.vb_d, rec.omega_d) == (1, 3, 3, None)

    def test_quandle_keys_must_differ(self):
        with pytest.raises(ValueError, match="'R3'"):
            PipelineConfig(quandles=(dihedral_quandle(3), dihedral_quandle(3)))
        unnamed = validate_quandle(dihedral_quandle(3).table)
        with pytest.raises(ValueError, match="'Q3'"):
            PipelineConfig(quandles=(unnamed, unnamed))
        [rec] = run_pipeline(
            [TableEntry("t", "O1-U2-O3-U1-O2-U3-", 1)],
            PipelineConfig(quandles=(unnamed, trivial_quandle(3))),
        )
        assert rec.quandle_counts == {"Q3": 9, "T3": 3}

    def test_unknown_analyses_rejected(self):
        # a misspelt or retired name would otherwise skip its analysis silently
        for names in ({"ideals"}, {"quandle"}, {"ideal", "welded", "colorings"}):
            with pytest.raises(ValueError, match="unknown analyses"):
                PipelineConfig(analyses=frozenset(names))
        assert PipelineConfig(analyses=frozenset({"ideal", "welded"})).analyses == {"ideal", "welded"}

    def test_exhausted_record(self):
        recs = run_pipeline(
            [TableEntry("capped", "O1-U2-O3-U1-O2-U3-", 1)],
            PipelineConfig(max_k=1),
        )
        assert recs[0].status_text == "error(exhausted)"

    def test_certificates_attached(self):
        recs = run_pipeline(
            [TableEntry("vt", "O1+O2+U1+U2+", 1)],
            PipelineConfig(certificates=True),
        )
        certs = recs[0].certificates
        assert set(certs) == {"sequence", "welded"}
        assert certs["welded"]["final"] == "."
        assert certs["sequence"]["k"] == 1

    def test_emitted_certificates_verify(self):
        # each certificate of the JSON output, parsed back, checks out on the
        # normalized diagram its record describes
        entries, _ = ingest_table(DATA)
        rows = json.loads(render_results(run_pipeline(entries, PipelineConfig(certificates=True)), "json"))
        sequences = heights = welded = 0
        for e, row in zip(entries, rows, strict=True):
            d = ensure_tail_per_component(parse_gauss_code(e.code))
            certs = row["certificates"]
            seq = ColoringSequence.from_json_dict(certs["sequence"])
            assert verify_coloring_sequence(d, seq), e.name
            sequences += 1
            if not is_cut_split(d):
                assert verify_height_certificate(d, seq), e.name
                heights += 1
            if "welded" in certs:
                cert = UnknottingCertificate.from_json_dict(certs["welded"])
                assert cert.initial == to_gauss_code(d) and replay_certificate(cert), e.name
                welded += 1
        assert (sequences, heights, welded) == (20, 14, 5)

    def test_results_in_input_order(self):
        entries, _ = ingest_table(DATA)
        for jobs in (1, 4):
            recs = run_pipeline(entries, PipelineConfig(jobs=jobs))
            assert [r.name for r in recs] == [e.name for e in entries]



class TestNoRecordViews:
    def test_analyze_builds_no_endpoint_or_chord_view(self, monkeypatch):
        # the pipeline reads tokens, sign maps and strand tables alone: a
        # components, chords or chord(id) view built anywhere on the way
        # would call _build_views.  The sample table projects no knot, so
        # seeded random knots add parity projections that are ranked
        def fail(d):
            raise AssertionError(f"a view of {d!r} was built")

        projected = []
        project = parity._project
        monkeypatch.setattr(GaussDiagram, "_build_views", fail)
        monkeypatch.setattr(parity, "_project", lambda d, bits: projected.append(d) or project(d, bits))
        entries, _ = ingest_table(DATA)
        rng = random.Random(3303)
        codes = [e.code for e in entries] + [to_gauss_code(random_knot(rng, max_chords=9)) for _ in range(40)]
        cfg = PipelineConfig(quandles=(dihedral_quandle(3),), certificates=True)
        assert cfg.analyses == batch.ALL_ANALYSES
        ran = set()
        for code in codes:
            d = ensure_tail_per_component(parse_gauss_code(code))
            rec = batch.analyze(d, cfg, ResultRecord(code))
            assert d._views is None, code
            assert rec.quandle_counts
            analyses = {"ideal": rec.ideal_lb, "parity": rec.parity_lb, "welded": rec.welded_unknot}
            ran |= {name for name, value in analyses.items() if value is not None}
        assert ran == {"ideal", "parity", "welded"} and projected


class TestInvariantStatus:
    """max(ideal_lb, parity_lb) <= omega <= vb and |X| <= count <= |X|^omega
    are checked on every record; a record that breaks one gets
    error(invariant) and keeps the fields computed."""

    TREFOIL = TableEntry("t", "O1-U2-O3-U1-O2-U3-", 1)  # vb 3, omega 2
    UNLINK = TableEntry("u", "O1+U1+|O2+U2+", 1)  # a link: no knot bound

    def test_ideal_bound_above_omega(self, monkeypatch):
        real = batch.ideal_lower_bound
        monkeypatch.setattr(batch, "ideal_lower_bound", lambda *a, **kw: real(*a, **kw)._replace(bound=3))
        [r] = run_pipeline([self.TREFOIL], PipelineConfig(analyses=frozenset({"ideal"})))
        assert r.status_text == "error(invariant)"
        assert (r.vb_d, r.omega_d, r.ideal_lb) == (3, 2, 3)

    def test_parity_bound_above_omega(self, monkeypatch):
        real = batch.parity_lower_bound
        monkeypatch.setattr(batch, "parity_lower_bound", lambda *a, **kw: real(*a, **kw)._replace(bound=3))
        [r] = run_pipeline([self.TREFOIL])
        assert r.status_text == "error(invariant)"
        assert (r.ideal_lb, r.parity_lb) == (2, 3)

    def test_omega_above_vb_without_bounds(self, monkeypatch):
        monkeypatch.setattr(batch, "bridge_count", lambda d: 1)
        [r] = run_pipeline([self.UNLINK])
        assert r.status_text == "error(invariant)"
        assert (r.vb_d, r.omega_d, r.ideal_lb, r.parity_lb) == (1, 2, None, None)

    @pytest.mark.parametrize("count, ok", [(2, False), (3, True), (9, True), (10, False)])
    def test_quandle_count_outside_the_sandwich(self, monkeypatch, count, ok):
        # R3 on a link of omega 2: 3 <= count <= 9
        monkeypatch.setattr(batch, "count_colorings", lambda *a, **kw: count)
        [r] = run_pipeline([self.UNLINK], PipelineConfig(quandles=(dihedral_quandle(3),)))
        assert r.status_text == ("ok" if ok else "error(invariant)")
        assert r.quandle_counts == {"R3": count}

class Unexpected(Exception):
    """An exception no record status covers."""


class TestWorkerPool:
    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                PipelineConfig(jobs=jobs)

    def test_workers_capped_at_cpus_and_entries(self, monkeypatch):
        # the caller analyzes one share and forks a child for each other one
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        entries = [TableEntry(f"k{i}", "O1+U1+", i) for i in range(40)]
        huge = PipelineConfig(jobs=10**6)

        def processes(part):
            forks.clear()
            assert [r.name for r in run_pipeline(part, huge)] == [e.name for e in part]
            return 1 + len(forks)

        assert processes(entries) == 3
        assert processes(entries[:2]) == 2
        # one entry, one CPU or an unknown CPU count: the serial path, no fork
        assert processes(entries[:1]) == 1
        for cpus in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert processes(entries) == 1

    @staticmethod
    def _dicts(recs):
        dicts = [batch._record_json_dict(r) for r in recs]
        for d in dicts:
            assert d.pop("elapsed_ms") >= 0.0
        return dicts

    @staticmethod
    def _fields(recs):
        """Every field of each record but elapsed_ms, by name."""
        out = []
        for rec in recs:
            assert type(rec) is ResultRecord
            assert rec.stats is None or type(rec.stats) is SearchStats
            fields = dict(vars(rec))
            assert fields.pop("elapsed_ms") >= 0.0
            out.append(fields)
        return out

    @staticmethod
    def _assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_records_equal_across_processes(self, monkeypatch):
        """Every field a child process sends back survives pickling: the
        records, timing aside, match the serial ones field for field and
        in their JSON view, also with three children and shares of unequal
        length."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        rng = random.Random(77)
        links = []
        while len(links) < 20:
            d = random_diagram(rng, max_chords=7, max_components=3, min_chords=2)
            if d.n_components > 1:
                links.append(d)
        entries, _ = ingest_table(DATA)
        entries += [TableEntry(f"link{i}", to_gauss_code(d), 100 + i) for i, d in enumerate(links)]
        entries.append(TableEntry("oops", "O1+", 200))
        quandles = (dihedral_quandle(3), dihedral_quandle(5))
        runs = [
            (entries, PipelineConfig(quandles=quandles, certificates=True)),
            (entries[2:4], PipelineConfig(quandles=quandles, certificates=True, time_limit=0)),
        ]
        statuses = set()
        for part, cfg in runs:
            runs = [run_pipeline(part, dataclasses.replace(cfg, jobs=jobs)) for jobs in (1, 2, 4)]
            by_jobs = [self._dicts(recs) for recs in runs]
            assert by_jobs[0] == by_jobs[1] == by_jobs[2]
            fields = [self._fields(recs) for recs in runs]
            assert fields[0] == fields[1] == fields[2]
            statuses |= {d["status"] for d in by_jobs[0]}
        assert statuses == {"ok", "error(parse)", "timeout"}
        self._assert_no_children()

    @pytest.mark.parametrize(
        "failing, error",
        [("k3", Unexpected), ("k0", Unexpected), ("k0", KeyboardInterrupt)],
        ids=["child-share", "caller-share", "caller-interrupt"],
    )
    def test_exception_reaches_the_caller(self, monkeypatch, failing, error):
        # with two processes the caller analyzes k0, k2, k4 and the child
        # k1, k3, k5; a failing caller kills and reaps the child
        real_analyze = batch.analyze

        def analyze(diagram, config, rec, **kwargs):
            if rec.name == failing:
                raise error(f"raised for {rec.name}")
            return real_analyze(diagram, config, rec, **kwargs)

        monkeypatch.setattr(batch, "analyze", analyze)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        entries = [TableEntry(f"k{i}", "O1+U1+", i) for i in range(6)]
        with pytest.raises(error, match=f"raised for {failing}"):
            run_pipeline(entries, PipelineConfig(jobs=2))
        self._assert_no_children()

    def test_unpicklable_exception_carries_the_child_traceback(self, monkeypatch):
        class Local(Exception):
            """Defined in a function, so pickle cannot find it by name."""

        real_analyze = batch.analyze

        def analyze(diagram, config, rec, **kwargs):
            if rec.name == "k1":
                raise Local(f"raised for {rec.name}")
            return real_analyze(diagram, config, rec, **kwargs)

        monkeypatch.setattr(batch, "analyze", analyze)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        entries = [TableEntry(f"k{i}", "O1+U1+", i) for i in range(2)]
        with pytest.raises(RuntimeError, match="(?s)Traceback.*Local: raised for k1"):
            run_pipeline(entries, PipelineConfig(jobs=2))
        self._assert_no_children()

    def test_serial_without_fork(self, monkeypatch):
        entries, _ = ingest_table(DATA)
        serial = self._dicts(run_pipeline(entries, PipelineConfig(jobs=1)))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert self._dicts(run_pipeline(entries, PipelineConfig(jobs=2))) == serial


def _resigned(code: str, rng: random.Random) -> str:
    """``code`` with its chord labels permuted and new random signs: the
    same strand structure, other chord ids at its arrowheads."""
    labels = sorted({int(m) for m in re.findall(r"[OU](\d+)", code)})
    new = dict(zip(labels, rng.sample(labels, len(labels))))
    signs = {label: rng.choice("+-") for label in labels}
    return re.sub(r"([OU])(\d+)[+-]", lambda m: f"{m[1]}{new[int(m[2])]}{signs[int(m[2])]}", code)


class TestSearchMemo:
    """run_pipeline searches each strand structure once per share; every
    record is the one a fresh search gives."""

    @staticmethod
    def _counting(monkeypatch):
        """Wrap batch.wirtinger_number; returns the list of (memo, its size
        before the call) per call."""
        calls = []
        real = batch.wirtinger_number

        def counted(*args, memo=None, **kwargs):
            calls.append((memo, len(memo)))
            return real(*args, memo=memo, **kwargs)

        monkeypatch.setattr(batch, "wirtinger_number", counted)
        return calls

    def test_records_equal_a_fresh_search_per_entry(self, monkeypatch):
        rng = random.Random(2802)
        entries = []
        for n_chords in range(5):
            for code in enumerate_knot_codes(n_chords):
                for signs in itertools.product("+-", repeat=n_chords):
                    entries.append(TableEntry(f"k{len(entries)}", with_signs(code, signs), len(entries)))
        for _ in range(40):
            code = random_diagram_code(rng, max_chords=7, max_components=3, min_chords=2, min_components=2)
            for variant in (code, _resigned(code, rng), _resigned(code, rng)):
                entries.append(TableEntry(f"l{len(entries)}", variant, len(entries)))
        # the coloring sequence in each record pins what every later
        # analysis reads of the search
        cfg = PipelineConfig(analyses=frozenset(), certificates=True)
        fresh = TestWorkerPool._dicts([run_pipeline([e], cfg)[0] for e in entries])
        assert {d["status"] for d in fresh} == {"ok"}
        calls = self._counting(monkeypatch)
        assert TestWorkerPool._dicts(run_pipeline(entries, cfg)) == fresh
        # each structure was searched once and hit on the rest
        assert len(calls) == len(entries) and calls[-1][1] < len(entries) / 4
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert TestWorkerPool._dicts(run_pipeline(entries, dataclasses.replace(cfg, jobs=2))) == fresh

    def test_a_hit_verifies_on_its_own_diagram(self, monkeypatch):
        first = parse_gauss_code("O1-U2-O3-U1-O2-U3-")
        other = parse_gauss_code("O3+U1+O2+U3+O1+U2+")
        memo = {}
        found = wirtinger_number(first, memo=memo)
        monkeypatch.setattr(search, "_search_level", None)  # a hit runs no level
        hit = wirtinger_number(other, memo=memo)
        assert len(memo) == 1 and hit.stats == found.stats
        assert [e.via for e in hit.sequence.entries] != [e.via for e in found.sequence.entries]
        assert verify_coloring_sequence(other, hit.sequence)
        monkeypatch.undo()
        assert hit == wirtinger_number(other)

    def test_hits_match_the_replacing_relabel(self):
        """A hit with other chord ids is the former relabel's result, record
        types included; one with the same ids is the stored result."""
        rng = random.Random(2901)
        codes = [with_signs(code, "+" * n) for n in range(1, 4) for code in enumerate_knot_codes(n)]
        codes += [random_diagram_code(rng, max_chords=12, max_components=3) for _ in range(60)]
        relabelled = same = 0
        for code in codes:
            first = parse_gauss_code(code)
            found_on = strand_table(first).incidences
            memo = {}
            found = wirtinger_number(first, memo=memo)
            for variant in (_resigned(code, rng), _resigned(code, rng), code):
                d = parse_gauss_code(variant)
                incidences = strand_table(d).incidences
                hit = wirtinger_number(d, memo=memo)
                assert len(memo) == 1
                assert_same_records(hit, replacing_relabel(found, found_on, incidences))
                assert hit == wirtinger_number(d)
                if [i.chord_id for i in incidences] == [i.chord_id for i in found_on]:
                    assert hit is found
                    same += 1
                else:
                    relabelled += 1
        assert relabelled > 100 and same >= len(codes)

    def test_component_sizes_are_part_of_the_structure(self):
        # a chordless circle adds a strand that no arrowhead names
        memo = {}
        assert wirtinger_number(parse_gauss_code("O1+U1+"), memo=memo).omega == 1
        assert wirtinger_number(parse_gauss_code("O1+U1+|."), memo=memo).omega == 2
        assert len(memo) == 2

    def test_time_limit_zero_times_out_every_entry(self):
        entries = [TableEntry(f"t{i}", _resigned(TREFOIL, random.Random(i)), i) for i in range(6)]
        records = run_pipeline(entries, PipelineConfig(time_limit=0))
        assert [r.status for r in records] == ["timeout"] * 6
        # a stored structure still checks the deadline
        memo = {}
        wirtinger_number(parse_gauss_code(TREFOIL), memo=memo)
        for e in entries:
            rec = batch._process_entry(e, PipelineConfig(time_limit=0), memo)
            assert rec.status == "timeout" and rec.omega_d is None

    def test_max_k_below_a_stored_omega_is_exhausted(self):
        memo = {}
        assert wirtinger_number(parse_gauss_code(TREFOIL), memo=memo).omega == 2
        entry = TableEntry("t", _resigned(TREFOIL, random.Random(1)), 1)
        rec = batch._process_entry(entry, PipelineConfig(max_k=1), memo)
        assert rec.status_text == "error(exhausted)"
        rec = batch._process_entry(TableEntry("t", TREFOIL, 1), PipelineConfig(max_k=2), memo)
        assert (rec.status, rec.omega_d) == ("ok", 2)

    def test_no_memo_survives_a_call(self, monkeypatch):
        calls = self._counting(monkeypatch)
        entries = [TableEntry(f"t{i}", _resigned(TREFOIL, random.Random(i)), i) for i in range(3)]
        run_pipeline(entries)
        first = calls[:]
        calls.clear()
        run_pipeline(entries)
        # each call starts from an empty memo of its own
        assert [size for _, size in first] == [size for _, size in calls] == [0, 1, 1]
        assert first[0][0] is not calls[0][0]


TREFOIL = "O1-U2-O3-U1-O2-U3-"
FIGURE_EIGHT = "O1-U2-O3-U1-O4+U3-O2-U4+"


def _connected_sum(code: str, m: int) -> str:
    """m relabelled copies of a knot code in a row: their connected sum."""
    n = code.count("O")
    return "".join(
        re.sub(r"\d+", lambda num: str(int(num[0]) + i * n), code) for i in range(m)
    )


class TestConnectedSums:
    """The m-fold sum of 2-bridge knots has bridge number m + 1 (Schubert),
    and the bounds reach it: omega, ideal and parity bounds all equal m + 1,
    and the dihedral quandle of the determinant p counts p^(m+1)."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "code, p", [(TREFOIL, 3), (FIGURE_EIGHT, 5)], ids=["trefoil", "figure-eight"]
    )
    def test_bounds_meet_the_bridge_number(self, code, p, m):
        q = dihedral_quandle(p)
        entry = TableEntry("sum", _connected_sum(code, m), 1)
        [r] = run_pipeline([entry], PipelineConfig(quandles=(q,)))
        assert r.status == "ok"
        assert r.omega_d == r.ideal_lb == r.parity_lb == m + 1
        assert r.quandle_counts == {q.name: p ** (m + 1)}


class TestRendering:
    def test_csv_layout(self):
        entries, _ = ingest_table(DATA)
        text = render_results(run_pipeline(entries[:3]))
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "unknot,1,1,1,1,1,0,1,1,ok,0"
        assert lines[3] == "trefoil,1,3,3,3,2,0;1,2,2,ok,0"
        assert len(lines) == 4

    def test_none_cells_render_empty(self):
        recs = run_pipeline([TableEntry("pair", ".|.", 1)])
        row = render_results(recs).splitlines()[1]
        assert row == "pair,2,2,2,2,2,0;1,,,ok,0"

    def test_rows_match_the_cell_renderer(self):
        """Rows handed to csv as they are give the bytes of the former
        renderer, which wrote each None cell as '' itself."""
        optional = ("components", "chords", "strands", "vb_d", "omega_d", "ideal_lb", "parity_lb")
        names = ["plain", "a,b", 'say "hi"', " lead", "trail ", "x\ny"]
        statuses = [("ok", None), ("timeout", None)] + [
            ("error", code) for code in ("parse", "exhausted", "invariant")
        ]
        records = []
        for i, present in enumerate(itertools.product((False, True), repeat=len(optional))):
            status, error_code = statuses[i % len(statuses)]
            records.append(
                ResultRecord(
                    name=names[i % len(names)],
                    **{f: i % 7 if p else None for f, p in zip(optional, present)},
                    seed_set=((), (0,), (0, 3))[i % 3],
                    status=status,
                    error_code=error_code,
                    elapsed_ms=1.5,
                )
            )
        entries, _ = ingest_table(DATA)
        records += run_pipeline(entries)
        assert render_results(records) == cell_render_results(records)
        assert render_results([]) == cell_render_results([])

    def test_csv_deterministic_across_jobs(self):
        entries, _ = ingest_table(DATA)
        texts = {
            render_results(run_pipeline(entries, PipelineConfig(jobs=jobs)))
            for jobs in (1, 4)
        }
        assert len(texts) == 1

    def test_json_carries_timing_and_counts(self):
        entries, _ = ingest_table(DATA)
        cfg = PipelineConfig(quandles=(dihedral_quandle(3),), certificates=True)
        data = json.loads(render_results(run_pipeline(entries[:4], cfg), "json"))
        assert [d["name"] for d in data] == ["unknot", "kink", "trefoil", "vtrefoil"]
        assert all(d["elapsed_ms"] >= 0.0 for d in data)
        assert data[2]["quandle_counts"] == {"R3": 9}
        stats = wirtinger_number(parse_gauss_code("O1-U2-O3-U1-O2-U3-")).stats
        assert data[2]["subsets_examined"] == stats.subsets_examined
        assert data[2]["saturation_steps"] == stats.saturation_steps
        assert data[3]["certificates"]["welded"]["initial"] == "O1+O2+U1+U2+"
        assert data[2]["status"] == "ok"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_results([], "xml")

    def test_write_results(self, tmp_path):
        recs = run_pipeline([TableEntry("k", "O1+U1+", 1)])
        out = tmp_path / "out.csv"
        text = write_results(recs, "csv", out)
        assert out.read_text() == text
