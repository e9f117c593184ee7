"""Table ingestion, the per-diagram analysis path, and result writers.

Input tables are tab-separated ``name<TAB>code`` lines; ``#`` lines are
comments.  Every entry is normalized (a tail on each component) before
analysis, and the reported component/chord/strand statistics describe the
normalized diagram, so the recorded invariants
max(ideal_lb, parity_lb) <= omega <= vb and |X| <= count <= |X|^omega for
each quandle count are meaningful within one record.

``analyze`` is the one per-diagram path, shared with the single-diagram
commands: it fills a record and raises on failure, and each entry turns
those exceptions into its status.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple, NoReturn, Optional, Sequence

from .errors import GaussCodeError, InvariantError, SearchExhaustedError, SearchTimeoutError, check_deadline
from .gauss import GaussDiagram, bridge_count, ensure_tail_per_component, parse_gauss_code, strand_table
from .linkgroup import ideal_lower_bound
from .parity import parity_lower_bound
from .quandle import FiniteQuandle, count_colorings
from .search import SearchStats, wirtinger_number
from .welded import is_one_overbridge, replay_certificate, welded_unknot_certificate  # noqa: F401, pipebench wraps it

CSV_COLUMNS = [
    "name",
    "components",
    "chords",
    "strands",
    "vbD",
    "omegaD",
    "seed_set",
    "ideal_lb",
    "parity_lb",
    "status",
    "elapsed_ms",
]

# the analyses PipelineConfig.analyses may name; quandle counts run for
# each table in PipelineConfig.quandles
ALL_ANALYSES = frozenset({"ideal", "parity", "welded"})
_BEFORE = {a: f"before the {a} analysis" for a in (*ALL_ANALYSES, "quandle")}


class TableEntry(NamedTuple):
    name: str
    code: str
    line: int


class TableProblem(NamedTuple):
    line: int
    message: str


def _quandle_key(q: FiniteQuandle) -> str:
    """The key of a quandle's count in ResultRecord.quandle_counts."""
    return q.name or f"Q{q.order}"


@dataclass
class PipelineConfig:
    max_k: Optional[int] = None
    time_limit: Optional[float] = None
    jobs: int = 1
    analyses: frozenset = ALL_ANALYSES
    quandles: tuple[FiniteQuandle, ...] = ()
    prime_bound: int = 97
    certificates: bool = False

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if unknown := self.analyses - ALL_ANALYSES:
            raise ValueError(f"unknown analyses {sorted(unknown)}")
        keys = [_quandle_key(q) for q in self.quandles]
        for key in keys:
            if keys.count(key) > 1:
                raise ValueError(f"two quandle tables share the key {key!r}")


@dataclass
class ResultRecord:
    name: str
    components: Optional[int] = None
    chords: Optional[int] = None
    strands: Optional[int] = None
    vb_d: Optional[int] = None
    omega_d: Optional[int] = None
    seed_set: tuple[int, ...] = ()
    stats: Optional[SearchStats] = None
    ideal_lb: Optional[int] = None
    parity_lb: Optional[int] = None
    quandle_counts: dict = field(default_factory=dict)
    welded_unknot: Optional[bool] = None
    status: str = "ok"
    error_code: Optional[str] = None
    elapsed_ms: float = 0.0
    certificates: Optional[dict] = None

    @property
    def status_text(self) -> str:
        if self.status == "error":
            return f"error({self.error_code})"
        return self.status


# a record's field values in declaration order, which ResultRecord(*values)
# takes back: what a forked child sends, without the field names and
# instance dict a pickle of the record would carry
_record_values = operator.attrgetter(*(f.name for f in fields(ResultRecord)))


def ingest_table(path) -> tuple[list[TableEntry], list[TableProblem]]:
    """Read a name/code table.  Malformed lines become TableProblem entries
    and processing continues; duplicate names are rejected."""
    entries: list[TableEntry] = []
    problems: list[TableProblem] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                problems.append(TableProblem(lineno, "expected name<TAB>code"))
                continue
            name, code = line.split("\t", 1)
            name = name.strip()
            code = code.strip()
            if not name or not code:
                problems.append(TableProblem(lineno, "empty name or code"))
                continue
            if name in seen:
                problems.append(TableProblem(lineno, f"duplicate name {name!r}"))
                continue
            seen.add(name)
            entries.append(TableEntry(name, code, lineno))
    return entries, problems


def _process_entry(entry: TableEntry, config: PipelineConfig, memo: Optional[dict]) -> ResultRecord:
    rec = ResultRecord(name=entry.name)
    start = time.perf_counter()
    try:
        analyze(ensure_tail_per_component(parse_gauss_code(entry.code)), config, rec, memo=memo)
    except GaussCodeError:
        rec.status, rec.error_code = "error", "parse"
    except SearchTimeoutError:
        rec.status = "timeout"
    except SearchExhaustedError:
        rec.status, rec.error_code = "error", "exhausted"
    except InvariantError:
        rec.status, rec.error_code = "error", "invariant"
    rec.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return rec


def analyze(
    diagram: GaussDiagram, config: PipelineConfig, rec: ResultRecord, *, memo: Optional[dict] = None
) -> ResultRecord:
    """Fill ``rec`` from ``diagram``: statistics, the Wirtinger search, then
    each enabled analysis that applies, in a fixed order.  ``memo`` goes to
    the search (see ``wirtinger_number``); ``run_pipeline`` keeps one per
    share of a table, so each strand structure is searched once there.

    Failures are exceptions, and the fields filled before one stay:
    SearchTimeoutError past ``config.time_limit``, which sets one
    ``time.perf_counter()`` deadline for the record (the search, the ideal
    and parity bounds and enumerated quandle counts get it and check it as
    they go, and each later analysis and each quandle count checks it
    before it starts),
    SearchExhaustedError at ``config.max_k``,
    InvariantError when max(ideal_lb, parity_lb) <= omega <= vb fails
    (absent bounds skipped) or a quandle count falls outside
    |X| <= count <= |X|^omega.
    Both bounds get the search's result, and the parity stage the ideal
    stage's, which is its own on a knot with no odd chord.
    """
    deadline = None if config.time_limit is None else time.perf_counter() + config.time_limit

    def due(analysis: str, applies: bool) -> bool:
        if analysis not in config.analyses or not applies:
            return False
        check_deadline(deadline, _BEFORE[analysis])
        return True

    rec.components = diagram.n_components
    rec.chords = diagram.n_chords
    rec.strands = strand_table(diagram).n_strands
    rec.vb_d = bridge_count(diagram)

    result = wirtinger_number(diagram, max_k=config.max_k, deadline=deadline, memo=memo)
    rec.omega_d = result.omega
    rec.seed_set = result.seed_set
    rec.stats = result.stats
    if config.certificates:
        rec.certificates = {"sequence": result.sequence.to_json_dict()}

    is_knot = diagram.n_components == 1
    ideal = None
    if due("ideal", is_knot):
        ideal = ideal_lower_bound(diagram, prime_bound=config.prime_bound, deadline=deadline, result=result)
        rec.ideal_lb = ideal.bound
    if due("parity", is_knot):
        rec.parity_lb = parity_lower_bound(
            diagram, prime_bound=config.prime_bound, deadline=deadline, ideal=ideal, result=result
        ).bound
    for q in config.quandles:
        check_deadline(deadline, _BEFORE["quandle"])
        rec.quandle_counts[_quandle_key(q)] = count_colorings(
            diagram, q, result=result, deadline=deadline
        )
    if due("welded", is_knot) and rec.vb_d == 1:  # one overbridge, with no second count
        cert = welded_unknot_certificate(diagram)
        rec.welded_unknot = bool(replay_certificate(cert))
        if config.certificates:
            rec.certificates["welded"] = cert.to_json_dict()

    lower = max(rec.ideal_lb or 0, rec.parity_lb or 0)  # an absent bound is None
    if not lower <= rec.omega_d <= rec.vb_d:
        raise InvariantError(f"lower bound {lower} <= omega {rec.omega_d} <= vb {rec.vb_d} fails")
    for q in config.quandles:
        key = _quandle_key(q)
        count = rec.quandle_counts[key]
        if not q.order <= count <= q.order**rec.omega_d:
            raise InvariantError(f"{q.order} <= {key} count {count} <= {q.order}^omega {rec.omega_d} fails")
    return rec


def run_pipeline(
    entries: Sequence[TableEntry], config: Optional[PipelineConfig] = None
) -> list[ResultRecord]:
    """Analyze entries in up to ``config.jobs`` processes, the calling one
    included, never more than the CPU count or the entries; records come
    back in input order whatever the process count, so writers emit
    identical output.

    With w processes, process r analyzes entries r, r + w, r + 2w, ...:
    the caller forks a child for each r > 0, analyzes r = 0 itself, then
    reads each child's records, sent back through a pipe as one pickle of
    each record's field values, and rebuilds them.
    Each process keeps a search memo for its share alone (see
    ``wirtinger_number``), and a hit gives what a fresh search would, so
    the records do not depend on w.  An exception in a child's share is
    raised in the caller, or a RuntimeError carrying the child's traceback
    when it cannot be pickled.
    Any exception in the caller kills and reaps every child first.  Where
    ``os.fork`` does not exist the entries run serially.  A child is a copy
    of the calling thread alone, so callers that run other threads should
    keep ``jobs`` at 1.
    """
    config = config or PipelineConfig()
    workers = min(config.jobs, len(entries)) if hasattr(os, "fork") else 1
    if workers > 1:  # os.cpu_count() reads a file, which serial calls skip
        workers = min(workers, os.cpu_count() or 1)
    # the search memo of the caller's share, dropped on return; a table of
    # one entry has no search to reuse
    memo = {} if len(entries) > 1 else None
    if workers <= 1:
        return [_process_entry(e, config, memo) for e in entries]
    # imported here: serial runs need neither
    import pickle
    import signal

    children = []  # (pid, read end of its pipe), in share order
    try:
        for r in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(entries[r::workers], config, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        records = [None] * len(entries)
        records[::workers] = [_process_entry(e, config, memo) for e in entries[::workers]]
        for r in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not reply:
                raise RuntimeError(f"worker process {pid} sent no records (wait status {status})")
            share, error, child_traceback = pickle.loads(reply)
            if child_traceback is not None:
                try:
                    exc = pickle.loads(error)
                except Exception:  # error is None when the child could not pickle it
                    raise RuntimeError(f"worker process {pid} failed:\n{child_traceback}") from None
                raise exc
            records[r::workers] = [ResultRecord(*values) for values in share]
        return records
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise


def _run_share(
    entries: Sequence[TableEntry], config: PipelineConfig, read_fd: int, write_fd: int
) -> NoReturn:
    """In a forked child: close the pipe's ``read_fd``, analyze ``entries``,
    write ``(the field values of each record, None, None)`` or, on any
    exception, ``(None, the pickled exception or None, its traceback
    text)`` to ``write_fd`` as one pickle, and leave through ``os._exit``."""
    import pickle

    status = 1
    try:
        os.close(read_fd)  # so a write fails, not blocks, once the caller is gone
        try:
            memo: dict = {}
            values = [_record_values(_process_entry(e, config, memo)) for e in entries]
            reply = pickle.dumps((values, None, None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            import traceback

            try:
                error = pickle.dumps(exc)
            except Exception:
                error = None
            reply = pickle.dumps((None, error, traceback.format_exc()))
        with open(write_fd, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


def _record_json_dict(rec: ResultRecord) -> dict:
    out = {
        "name": rec.name,
        "components": rec.components,
        "chords": rec.chords,
        "strands": rec.strands,
        "vbD": rec.vb_d,
        "omegaD": rec.omega_d,
        "seed_set": list(rec.seed_set),
        "subsets_examined": None if rec.stats is None else rec.stats.subsets_examined,
        "saturation_steps": None if rec.stats is None else rec.stats.saturation_steps,
        "ideal_lb": rec.ideal_lb,
        "parity_lb": rec.parity_lb,
        "quandle_counts": rec.quandle_counts,
        "welded_unknot": rec.welded_unknot,
        "status": rec.status_text,
        "elapsed_ms": rec.elapsed_ms,
    }
    if rec.certificates is not None:
        out["certificates"] = rec.certificates
    return out


def render_results(records: Sequence[ResultRecord], fmt: str = "csv") -> str:
    """Render records as CSV (the stable, diffable format) or JSON.

    The CSV elapsed_ms column is pinned to 0 so identical inputs give
    byte-identical files whatever the process count or machine load; the
    JSON output carries the measured per-entry times.
    """
    if fmt == "json":
        return json.dumps([_record_json_dict(r) for r in records], indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # writes None as an empty cell
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        (
            rec.name,
            rec.components,
            rec.chords,
            rec.strands,
            rec.vb_d,
            rec.omega_d,
            ";".join(str(s) for s in rec.seed_set),
            rec.ideal_lb,
            rec.parity_lb,
            rec.status_text,
            0,
        )
        for rec in records
    )
    return buf.getvalue()


def write_results(records: Sequence[ResultRecord], fmt: str, path=None) -> str:
    """Render and optionally write to ``path``; returns the rendered text."""
    text = render_results(records, fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
