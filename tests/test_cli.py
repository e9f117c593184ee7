import json
import os
import time

import pytest

import util
from vbridge import batch, cli, quandle
from vbridge.batch import PipelineConfig, ingest_table, run_pipeline
from vbridge.gauss import ensure_tail_per_component, parse_gauss_code
from vbridge.quandle import load_quandle_table
from vbridge.cli import _UsageError, _build_parser, main

DATA = os.path.join(os.path.dirname(__file__), "data", "sample_table.tsv")
D6 = "O1-O2-O3-U1-O4-U3-O5-U6-U2-U5-U4-O6-"
DV = "O1+O2+U1+U2+"
D3 = "O1-U2-O3-U1-O2-U3-"
R3_TABLE = "3\n0 2 1\n2 1 0\n1 0 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "usage error" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate", ".")[0] == 1

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "wirtinger", "--max-k", "many", ".")[0] == 1

    def test_quandle_without_table(self, capsys):
        code, _, err = run(capsys, "quandle", D3)
        assert code == 1 and "--quandle" in err

    def test_bad_code(self, capsys):
        code, _, err = run(capsys, "parse", "O1+")
        assert code == 2 and "error" in err

    def test_knot_only_command_on_link(self, capsys):
        for command in ("alexander", "welded"):
            assert run(capsys, command, ".|.")[0] == 2

    def test_missing_table(self, capsys):
        assert run(capsys, "batch", "/nonexistent/table.tsv")[0] == 2

    def test_timeout(self, capsys):
        assert run(capsys, "wirtinger", "--time-limit", "0.0", D3)[0] == 3

    def test_alexander_takes_no_max_k(self, capsys):
        # the bound has no cap to set: its presentation's width is one
        code, out, err = run(capsys, "alexander", "--max-k", "1", D3)
        assert code == 1 and out == "" and "unrecognized arguments" in err

    def test_malformed_quandle_tables(self, capsys, tmp_path):
        # a row past the order, a second header token, order 0
        for name, text in (
            ("rows.txt", R3_TABLE + "0 1 2\n"),
            ("header.txt", "3 7\n" + R3_TABLE.split("\n", 1)[1]),
            ("zero.txt", "0\n"),
        ):
            path = tmp_path / name
            path.write_text(text)
            for argv in (("quandle", "--quandle", str(path), D3), ("batch", "--quandle", str(path), DATA)):
                code, out, err = run(capsys, *argv)
                assert code == 2 and out == "" and str(path) in err, (name, argv[0])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n0 x\n1 1\n", "table row 1 has an entry that is not an integer in 0..1"),
            ("2\n0 0 0\n1 1\n", "table row 1 has 3 entries, expected 2"),
            ("2\n0 0\n1 2\n", "table row 2 has an entry that is not an integer in 0..1"),
            ("2\n1 0\n0 1\n", "0 > 0 = 1"),
        ],
        ids=["entry", "ragged", "range", "axiom"],
    )
    def test_quandle_file_faults_name_the_path(self, capsys, tmp_path, text, message):
        path = tmp_path / "badq.txt"
        path.write_text(text)
        for argv in (("quandle", "--quandle", str(path), D3), ("batch", "--quandle", str(path), DATA)):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {path}: {message}\n"), argv[0]

    def test_alexander_timeout(self, capsys):
        code, out, err = run(capsys, "alexander", "--time-limit", "0.0", D3)
        assert code == 3 and out == "" and "timeout" in err
        assert run_json(capsys, "alexander", "--time-limit", "60", D3) == run_json(
            capsys, "alexander", D3
        )

    def test_alexander_time_limit_covers_the_matrix(self, capsys, monkeypatch):
        # the clock passes the deadline while the dense matrix is built:
        # nothing is printed, and the exit is a timeout
        clock = time.perf_counter
        late = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: clock() + late[0])
        build = cli.alexander_matrix

        def slow_matrix(d):
            late[0] = 3600.0
            return build(d)

        monkeypatch.setattr(cli, "alexander_matrix", slow_matrix)
        code, out, err = run(capsys, "alexander", "--time-limit", "60", D3)
        assert code == 3 and out == "" and "Alexander matrix" in err
        # past the deadline once the bound is done: no matrix is built
        late[0] = 0.0
        real_bound = cli.sequence_bound

        def slow_bound(*args, **kwargs):
            result = real_bound(*args, **kwargs)
            late[0] = 3600.0
            return result

        monkeypatch.setattr(cli, "sequence_bound", slow_bound)
        monkeypatch.setattr(cli, "alexander_matrix", None)
        code, out, err = run(capsys, "alexander", "--time-limit", "60", D3)
        assert code == 3 and out == "" and "Alexander matrix" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestSingleDiagramCommands:
    def test_parse(self, capsys):
        data = run_json(capsys, "parse", D6)
        assert data["components"] == 1 and data["chords"] == 6
        assert data["strands"][0]["tails"] == [6, 1, 2, 3]
        assert data["cut_split"] is None

    def test_parse_cut_split(self, capsys):
        data = run_json(capsys, "parse", "O1+U1+")
        assert data["cut_split"] == {"kind": "arrowhead", "index": 1}
        data = run_json(capsys, "parse", ".|O1+U1+")
        assert data["cut_split"] == {"kind": "component", "index": 0}

    def test_bridge(self, capsys):
        assert run_json(capsys, "bridge", D6)["bridge_count"] == 3

    def test_wirtinger(self, capsys):
        data = run_json(capsys, "wirtinger", D6)
        assert data["omega"] == 1 and data["seed_set"] == [0]
        assert "sequence" not in data

    def test_wirtinger_certificate(self, capsys):
        data = run_json(capsys, "wirtinger", "--certificates", D6)
        assert data["sequence"]["order"] == [0, 1, 2, 3, 4, 5]
        assert data["sequence"]["k"] == 1

    def test_parity(self, capsys):
        data = run_json(capsys, "parity", DV)
        assert data["parity"] == {"1": 1, "2": 1}
        assert data["projection"] == "." and data["fixpoint"] == "."

    def test_parity_iterated(self, capsys):
        data = run_json(capsys, "parity", "O1+O2+U1+U2+O3+U3+")
        assert data["iterated"] == ["O1+O2+U1+U2+O3+U3+", "O3+U3+"]
        assert data["fixpoint"] == "O3+U3+"

    def test_alexander(self, capsys):
        data = run_json(capsys, "alexander", D3)
        assert data["lower_bound"] == 2
        assert len(data["matrix"]) == 3 and len(data["matrix"][0]) == 3
        assert data["core_width"] == 2
        assert data["witness"] == {"p": 3, "u": 2, "nullity": 2}
        assert "ideals" not in data
        assert (data["generators"], data["relations"]) == (3, 3)
        # the chordless circle: one strand, no arrowhead, so no relation
        data = run_json(capsys, "alexander", ".")
        assert (data["generators"], data["relations"], data["matrix"]) == (1, 0, [])
        # the presentation keeps the one seed as a column, though it has no row
        assert (data["core_width"], data["witness"], data["lower_bound"]) == (1, None, 1)

    def test_alexander_matrix_text(self, capsys):
        # c*t^e terms, highest exponent first, "+" before each later
        # positive coefficient, "0" for a zero entry
        data = run_json(capsys, "alexander", "O1-U2-O3-U1-O4+U3-O2-U4+")
        assert data["matrix"] == [
            ["1*t^-1", "-1*t^0", "0", "1*t^0-1*t^-1"],
            ["1*t^0-1*t^-1", "1*t^-1", "-1*t^0", "0"],
            ["0", "1*t^0-1*t^-1", "1*t^-1", "-1*t^0"],
            ["-1*t^0", "0", "-1*t^1+1*t^0", "1*t^1"],
        ]
        # every knot of the sample table prints the Laurent oracle's text
        knots = [e.code for e in ingest_table(DATA)[0] if parse_gauss_code(e.code).n_components == 1]
        assert len(knots) == 13
        for code in knots:
            oracle = util.laurent_alexander_matrix(parse_gauss_code(code))
            expected = [list(map(str, row)) for row in oracle.rows]
            assert run_json(capsys, "alexander", code)["matrix"] == expected, code

    def test_alexander_core_width_is_the_reduced_seed_count(self, capsys, monkeypatch):
        # the bound ranks the presentation on search.reduced_seed_set, taken
        # under the command's deadline, with no seed-set search; this knot's
        # former Alexander core was one wide, but it needs two seeds
        deadlines = []
        reduced = cli.reduced_seed_set

        def counted(d, deadline):
            deadlines.append(deadline)
            return reduced(d, deadline)

        monkeypatch.setattr(cli, "reduced_seed_set", counted)
        monkeypatch.setattr("vbridge.search._search_level", None)
        for code, width, bound in ((D3, 2, 2), (".", 1, 1), ("O1+U1+U2+O2+O3+U3+U4+O4+", 2, 1)):
            data = run_json(capsys, "alexander", code)
            assert (data["core_width"], data["lower_bound"]) == (width, bound), code
        data = run_json(capsys, "alexander", "--time-limit", "60", D3)
        assert data["core_width"] == 2
        assert deadlines[:3] == [None] * 3 and deadlines[3] is not None
        # a link is rejected before any seeds are taken, with the bound's message
        code, out, err = run(capsys, "alexander", "O1+U1+|O2+U2+")
        assert code == 2 and out == ""
        assert "elementary-ideal bound is defined for knot diagrams" in err
        assert len(deadlines) == 4

    def test_quandle(self, capsys, tmp_path):
        path = tmp_path / "r3.txt"
        path.write_text("3\n0 2 1\n2 1 0\n1 0 2\n")
        data = run_json(capsys, "quandle", "--quandle", str(path), D3)
        assert data == {"omega": 2, "counts": {"r3": 9}}

    def test_quandle_counts_each_table_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "r3.txt"
        path.write_text("3\n0 2 1\n2 1 0\n1 0 2\n")
        calls = []
        real = quandle.count_colorings

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "count_colorings", counted)
        monkeypatch.setattr(quandle, "count_colorings", counted)
        data = run_json(capsys, "quandle", "--quandle", str(path), D3)
        assert data["counts"] == {"r3": 9}
        assert len(calls) == 1

    def test_quandle_time_limit_covers_the_counts(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "r3.txt"
        path.write_text(R3_TABLE)
        real = batch.wirtinger_number

        def slow_search(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "wirtinger_number", slow_search)
        code, out, err = run(capsys, "quandle", "--time-limit", "0.1", "--quandle", str(path), D3)
        assert code == 3 and out == "" and "timeout" in err

    def test_commands_agree_with_batch_records(self, capsys, tmp_path):
        path = tmp_path / "r3.txt"
        path.write_text(R3_TABLE)
        # batch normalizes; on these codes normalizing changes nothing
        entries = [
            e for e in ingest_table(DATA)[0]
            if (d := parse_gauss_code(e.code)) is ensure_tail_per_component(d)
        ]
        config = PipelineConfig(quandles=(load_quandle_table(path),), certificates=True)
        for e, rec in zip(entries, run_pipeline(entries, config)):
            w = run_json(capsys, "wirtinger", "--certificates", e.code)
            assert (w["omega"], tuple(w["seed_set"])) == (rec.omega_d, rec.seed_set)
            assert (w["subsets_examined"], w["saturation_steps"]) == (
                rec.stats.subsets_examined,
                rec.stats.saturation_steps,
            )
            assert w["sequence"] == rec.certificates["sequence"]
            q = run_json(capsys, "quandle", "--quandle", str(path), e.code)
            assert (q["omega"], q["counts"]) == (rec.omega_d, rec.quandle_counts)
        assert len(entries) == 14

    def test_shared_quandle_key_is_a_usage_error(self, capsys, tmp_path):
        for sub, text in (("a", R3_TABLE), ("b", "2\n0 0\n1 1\n")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "r.txt").write_text(text)
        files = ["--quandle", str(tmp_path / "a" / "r.txt"), "--quandle", str(tmp_path / "b" / "r.txt")]
        for argv in (["quandle", *files, D3], ["batch", *files, DATA]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "usage error" in err and "'r'" in err

    def test_welded_positive(self, capsys):
        data = run_json(capsys, "welded", DV)
        assert data["one_overbridge"] and data["verified"]
        assert data["certificate"]["final"] == "."

    def test_welded_negative(self, capsys):
        assert run_json(capsys, "welded", D3) == {"one_overbridge": False}

    def test_welded_runs_no_search(self, capsys, monkeypatch):
        # welded has no --max-k or --time-limit, so an unbounded search must not run
        def no_search(*args, **kwargs):
            raise AssertionError("welded ran the Wirtinger search")

        monkeypatch.setattr(batch, "wirtinger_number", no_search)
        assert run_json(capsys, "welded", DV)["verified"]
        assert run_json(capsys, "welded", D3) == {"one_overbridge": False}


class TestFlags:
    VALUES = {
        "--max-k": ["3"],
        "--time-limit": ["5"],
        "--jobs": ["2"],
        "--format": ["json"],
        "--certificates": [],
        "--quandle": ["r3.txt"],
        "--prime-bound": ["11"],
    }
    COMMANDS = ["parse", "bridge", "wirtinger", "parity", "alexander", "quandle", "welded", "batch"]

    def test_each_command_takes_only_the_flags_it_reads(self):
        accepted = set()
        for command in self.COMMANDS:
            for flag, value in self.VALUES.items():
                try:
                    _build_parser().parse_args([command, flag, *value, D3])
                except _UsageError:
                    continue
                accepted.add((command, flag))
        expected = {("batch", flag) for flag in self.VALUES}
        expected |= {("wirtinger", f) for f in ("--max-k", "--time-limit", "--certificates")}
        expected |= {("alexander", f) for f in ("--time-limit", "--prime-bound")}
        expected |= {("quandle", f) for f in ("--max-k", "--time-limit", "--quandle")}
        assert accepted == expected and len(expected) == 15

    def test_out_of_range_values_are_usage_errors(self, capsys):
        for argv in (
            ["wirtinger", "--max-k", "0", D3],
            ["quandle", "--max-k", "-2", "--quandle", "r3.txt", D3],
            ["wirtinger", "--time-limit", "-1", D3],
            ["quandle", "--time-limit", "nan", "--quandle", "r3.txt", D3],
            ["alexander", "--time-limit", "-0.5", D3],
            ["alexander", "--prime-bound", "0", D3],
            ["alexander", "--prime-bound", "1", D3],
            ["batch", "--prime-bound", "1", DATA],
            ["batch", "--max-k", "0", DATA],
            ["batch", "--time-limit", "NaN", DATA],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert "usage error" in err and argv[1] in err and "at least" in err, argv
        # the smallest values in range still run
        assert run_json(capsys, "wirtinger", "--max-k", "1", "O1+U1+")["omega"] == 1
        assert run_json(capsys, "alexander", "--prime-bound", "2", D3)["lower_bound"] == 1
        assert run(capsys, "wirtinger", "--time-limit", "0", D3)[0] == 3

    def test_unread_flags_are_usage_errors(self, capsys):
        code, out, err = run(
            capsys, "parse", "--jobs", "9", "--quandle", "/nonexistent", "--prime-bound", "-3", "O1+U1+"
        )
        assert code == 1 and out == "" and "unrecognized arguments" in err


class TestBatchCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run(capsys, "batch", DATA)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("name,components,")
        assert len(lines) == 21

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "results.csv"
        code, out, _ = run(capsys, "batch", "-o", str(out_path), DATA)
        assert code == 0 and out == ""
        assert out_path.read_text().splitlines()[0].startswith("name,")

    def test_jobs_do_not_change_output(self, capsys):
        texts = set()
        for jobs in ("1", "8"):
            code, out, _ = run(capsys, "batch", "--jobs", jobs, DATA)
            assert code == 0
            texts.add(out)
        assert len(texts) == 1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "batch", "--format", "json", DATA)
        assert code == 0
        data = json.loads(out)
        assert len(data) == 20 and data[0]["name"] == "unknot"

    def test_problem_lines_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("ok\t.\nbroken line\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 2
        assert "expected name<TAB>code" in err
        assert len(out.splitlines()) == 2  # valid rows still processed

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("bad\tO1+\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 2
        assert "error(parse)" in out

    def test_jobs_below_one_is_a_usage_error(self, capsys):
        for jobs in ("0", "-3"):
            code, out, err = run(capsys, "batch", "--jobs", jobs, DATA)
            assert code == 1 and out == ""
            assert "usage error" in err and "jobs" in err

    def test_timeout_exit_3(self, capsys, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(f"slow\t{D3}\n")
        code, out, _ = run(capsys, "batch", "--time-limit", "0.0", str(path))
        assert code == 3
        assert "timeout" in out

    def test_quandle_files(self, capsys, tmp_path):
        path = tmp_path / "t2.txt"
        path.write_text("2\n0 0\n1 1\n")
        code, out, _ = run(
            capsys, "batch", "--format", "json", "--quandle", str(path), DATA
        )
        assert code == 0
        data = {d["name"]: d for d in json.loads(out)}
        assert data["trefoil"]["quandle_counts"] == {"t2": 2}
        assert data["unlink2"]["quandle_counts"] == {"t2": 4}
