"""Command-line interface (``vbridge``, or ``python -m vbridge``).

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 timeout-only
failures.  Single-diagram commands print JSON; ``batch`` honors --format.
``wirtinger`` and ``quandle`` print fields of the record that
``batch.analyze`` fills, the path every ``batch`` entry takes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .batch import (
    PipelineConfig,
    ResultRecord,
    analyze,
    ingest_table,
    run_pipeline,
    write_results,
)
from .errors import SearchTimeoutError, VbridgeError, check_deadline, require_knot
from .gauss import (
    bridge_count,
    cut_split_witness,
    parse_gauss_code,
    strand_table,
    to_gauss_code,
)
from .linkgroup import alexander_matrix, sequence_bound
from .parity import gaussian_parity, parity_projection
from .quandle import load_quandle_table
from .search import apply_coloring_moves, reduced_seed_set
from .welded import is_one_overbridge, replay_certificate, welded_unknot_certificate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_TIMEOUT = 3

_MATRIX = "before printing the Alexander matrix"  # the end of its timeout message


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _at_least(convert, low):
    """An argparse type: ``convert(text)``, a usage error below ``low``."""

    def parse(text: str):
        value = convert(text)
        if not value >= low:  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_FLAGS = {
    "--max-k": dict(type=_at_least(int, 1), default=None, help="largest seed set the Wirtinger search tries; caps that search only (at least 1)"),
    "--time-limit": dict(type=_at_least(float, 0), default=None, help="per-diagram wall-clock limit in seconds (at least 0)"),
    "--jobs": dict(type=int, default=1, help="processes analyzing interleaved shares of the batch, this one included (at least 1; serial where os.fork is missing)"),
    "--format": dict(choices=["csv", "json"], default="csv", help="batch output format"),
    "--certificates": dict(action="store_true", help="embed certificates in JSON output"),
    "--quandle": dict(action="append", default=[], metavar="FILE", help="quandle table file (repeatable)"),
    "--prime-bound": dict(type=_at_least(int, 2), default=97, help="largest prime tried for the ideal bound's witness (at least 2)"),
}

# command -> (help, the flags it reads)
_COMMANDS = {
    "parse": ("validate a Gauss code and report its structure", ()),
    "bridge": ("count overbridges", ()),
    "wirtinger": ("minimal seed-set search", ("--max-k", "--time-limit", "--certificates")),
    "parity": ("Gaussian parity and projection", ()),
    "alexander": ("Fox-calculus matrix and ideal bounds", ("--time-limit", "--prime-bound")),
    "quandle": ("coloring counts for quandle table files", ("--max-k", "--time-limit", "--quandle")),
    "welded": ("one-overbridge unknotting certificate", ()),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="vbridge", description="Bridge-number bounds for virtual links from Gauss codes")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("code", help="Gauss code, e.g. 'O1+U2+O2+U1+'")

    batch = sub.add_parser("batch", help="process a name<TAB>code table")
    for flag, options in _FLAGS.items():
        batch.add_argument(flag, **options)
    batch.add_argument("table", help="input table path")
    batch.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VbridgeError, OSError, ValueError) as exc:
        if isinstance(exc, SearchTimeoutError):
            print(f"timeout: {exc}", file=sys.stderr)
            return EXIT_TIMEOUT
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _polynomial_text(g: dict) -> str:
    """A {exponent: coefficient} polynomial as c*t^e terms, highest exponent
    first, "+" before each later positive coefficient; "0" when empty."""
    return "".join(f"{c:+d}*t^{e}" for e, c in sorted(g.items(), reverse=True)).removeprefix("+") or "0"


def _config(args, **fields) -> PipelineConfig:
    """PipelineConfig from ``--max-k``, ``--time-limit`` and ``fields``; a
    quandle key shared by two tables is a usage error."""
    try:
        return PipelineConfig(max_k=args.max_k, time_limit=args.time_limit, **fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _analyze(args, d, **fields) -> ResultRecord:
    """The batch record of one diagram, analyzed as given (not normalized)."""
    return analyze(d, _config(args, **fields), ResultRecord(name=args.code))


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "batch":
        return _cmd_batch(args)

    d = parse_gauss_code(args.code)

    if cmd == "parse":
        table = strand_table(d)
        witness = cut_split_witness(d)
        _emit(
            {
                "code": to_gauss_code(d),
                "components": d.n_components,
                "chords": d.n_chords,
                "strands": [
                    {"id": s.id, "component": s.component, "tails": list(s.tails)}
                    for s in table.strands
                ],
                "cut_split": None
                if witness is None
                else {"kind": witness.kind, "index": witness.index},
            }
        )
        return EXIT_OK

    if cmd == "bridge":
        _emit({"code": to_gauss_code(d), "bridge_count": bridge_count(d)})
        return EXIT_OK

    if cmd == "wirtinger":
        rec = _analyze(args, d, analyses=frozenset(), certificates=args.certificates)
        out = {
            "omega": rec.omega_d,
            "seed_set": list(rec.seed_set),
            "subsets_examined": rec.stats.subsets_examined,
            "saturation_steps": rec.stats.saturation_steps,
        }
        if args.certificates:
            out["sequence"] = rec.certificates["sequence"]
        _emit(out)
        return EXIT_OK

    if cmd == "parity":
        steps = [d]
        while (nxt := parity_projection(steps[-1])) != steps[-1]:
            steps.append(nxt)
        codes = [to_gauss_code(step) for step in steps]
        _emit(
            {
                "parity": {str(c): b for c, b in sorted(gaussian_parity(d).items())},
                "projection": codes[1] if len(codes) > 1 else codes[0],
                "iterated": codes,
                "fixpoint": codes[-1],
            }
        )
        return EXIT_OK

    if cmd == "alexander":
        # the seeds and the bound on them first: the dense matrix is
        # quadratic in the strands, so it is built only while time allows
        deadline = None if args.time_limit is None else time.perf_counter() + args.time_limit
        require_knot(d, "elementary-ideal bound")
        seq = apply_coloring_moves(d, reduced_seed_set(d, deadline))
        result = sequence_bound(d, seq, prime_bound=args.prime_bound, deadline=deadline)
        check_deadline(deadline, _MATRIX)
        table = strand_table(d)
        out = {
            "generators": table.n_strands,
            "relations": len(table.incidences),
            "matrix": [[_polynomial_text(entry) for entry in row] for row in alexander_matrix(d).rows],
            "core_width": seq.k,
            "witness": None if result.witness is None else dict(zip(("p", "u", "nullity"), result.witness)),
            "lower_bound": result.bound,
        }
        check_deadline(deadline, _MATRIX)
        _emit(out)
        return EXIT_OK

    if cmd == "quandle":
        if not args.quandle:
            raise _UsageError("quandle command needs at least one --quandle FILE")
        rec = _analyze(args, d, analyses=frozenset(), quandles=tuple(map(load_quandle_table, args.quandle)))
        _emit({"omega": rec.omega_d, "counts": rec.quandle_counts})
        return EXIT_OK

    if cmd == "welded":
        out = {"one_overbridge": is_one_overbridge(d)}
        if out["one_overbridge"]:
            cert = welded_unknot_certificate(d)
            out.update(certificate=cert.to_json_dict(), verified=bool(replay_certificate(cert)))
        _emit(out)
        return EXIT_OK

    raise _UsageError(f"unknown command {cmd!r}")  # pragma: no cover


def _cmd_batch(args) -> int:
    entries, problems = ingest_table(args.table)
    for problem in problems:
        print(f"{args.table}:{problem.line}: {problem.message}", file=sys.stderr)

    quandles = tuple(load_quandle_table(path) for path in args.quandle)
    config = _config(
        args, jobs=args.jobs, quandles=quandles, prime_bound=args.prime_bound, certificates=args.certificates
    )
    records = run_pipeline(entries, config)
    text = write_results(records, args.format, args.output)
    if args.output is None:
        sys.stdout.write(text)

    if problems or any(r.status == "error" for r in records):
        return EXIT_INPUT
    if any(r.status == "timeout" for r in records):
        return EXIT_TIMEOUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
