"""One pass of a workload, in a process of its own.

    python3 pipebench/worker.py --workload NAME --seed N --mode serial|pool|traced|setup

Every timed pass and the traced run start a fresh interpreter: ``strand_table``
keeps an unbounded ``lru_cache`` keyed on the diagram value, so a second pass
over the same corpus in one process would time cache hits that a ``vbridge
batch`` user never gets.

Modes:
  serial  closed loop, one ``run_pipeline`` call per entry with ``jobs=1``,
          each call timed by the benchmark;
  pool    the whole corpus through ``run_pipeline`` with ``jobs=2``; entry
          latency is the record's own ``elapsed_ms``;
  traced  ``serial`` with spans around every call ``vbridge.batch`` makes
          into another module (see tracing.py);
  setup   stop after set-up and report its time only.

Timings are scaled to the reference CPU speed of speed.py; the raw wall
and set-up times are kept beside them.  Prints one JSON object with the
timings, the rendered CSV and the names of records that failed a check
made here.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

import corpus
from speed import SpeedTrack

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SAMPLE_TABLE = os.path.join(ROOT, "tests", "data", "sample_table.tsv")


def dihedral_rows(n: int) -> list[list[int]]:
    return [[(2 * y - x) % n for y in range(n)] for x in range(n)]


def load_quandles(vbridge, workload: str):
    """Write each quandle as a ``--quandle`` file and load it back, which
    validates the axioms the way ``vbridge batch`` does."""
    quandles = []
    for n in corpus.QUANDLE_ORDERS.get(workload, ()):
        path = os.path.join(corpus.WORK_DIR, f"R{n}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n}\n")
            fh.writelines(" ".join(map(str, row)) + "\n" for row in dihedral_rows(n))
        quandles.append(vbridge.load_quandle_table(path))
    return tuple(quandles)


def record_checks(records, quandles) -> list[str]:
    """Names of records whose quandle counts leave |X| <= count <= |X|^omega
    or whose welded certificate failed its replay."""
    bad = []
    for rec in records:
        counts_ok = all(
            q.order <= rec.quandle_counts.get(q.name, -1) <= q.order ** rec.omega_d
            for q in quandles
        )
        if not counts_ok or rec.welded_unknot is False:
            bad.append(rec.name)
    return bad


def call_results(rec) -> dict:
    return {
        "strands": rec.strands,
        "vbD": rec.vb_d,
        "omegaD": rec.omega_d,
        "seed_set": rec.seed_set,
        "ideal_lb": rec.ideal_lb,
        "parity_lb": rec.parity_lb,
    }


def main() -> int:
    start = time.perf_counter()  # set-up counts from before vbridge is imported
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("serial", "pool", "traced", "setup"), required=True)
    parser.add_argument("--groups", type=int, default=None, help="use only the first N pool groups")
    parser.add_argument("--record", action="store_true", help="run the whole ungrouped pool")
    args = parser.parse_args()

    import vbridge
    from vbridge import batch

    if not os.path.abspath(vbridge.__file__).startswith(SRC + os.sep):
        print(f"vbridge imported from {vbridge.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    pool = []
    if args.record:
        sample_table = [(e.name, e.code) for e in vbridge.ingest_table(SAMPLE_TABLE)[0]]
        pool = corpus.build_pool(args.workload, args.seed, sample_table)
        pairs = [(name, code) for _, name, code in pool]
    else:
        groups = corpus.read_pool(corpus.pool_path(args.workload))[: args.groups]
        pairs = corpus.sample(groups, args.seed)
    os.makedirs(corpus.WORK_DIR, exist_ok=True)
    table = os.path.join(corpus.WORK_DIR, f"{args.workload}-{args.seed}.tsv")
    corpus.write_table(table, pairs, f"{args.workload} seed {args.seed}")
    entries, problems = vbridge.ingest_table(table)
    if problems or len(entries) != len(pairs):
        print(f"{table}: {problems}", file=sys.stderr)
        return 3
    quandles = load_quandles(vbridge, args.workload)
    jobs = corpus.JOBS.get(args.workload, 1) if args.mode == "pool" else 1
    full = vbridge.PipelineConfig(jobs=jobs, quandles=quandles)
    capped = dataclasses.replace(full, analyses=full.analyses - {"ideal", "parity"})
    config_of = {e.name: capped if corpus.is_capped(e.code) else full for e in entries}
    setup = (start, time.perf_counter())
    speed = SpeedTrack()
    speed.probe()
    if args.mode == "setup":
        for _ in range(4):
            speed.probe(force=True)
        print(json.dumps({"setup_s": (setup[1] - setup[0]) * speed.factor(*setup)}))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(batch)

    mismatched = []
    intervals = []  # (start, end) of each timed call
    if args.mode == "pool":
        parts = []
        with speed.side_process():
            for config in (full, capped):
                part = [e for e in entries if config_of[e.name] is config]
                t = time.perf_counter()
                parts.append(vbridge.run_pipeline(part, config))
                intervals.append((t, time.perf_counter()))
        by_name = {rec.name: rec for part in parts for rec in part}
        records = [by_name[e.name] for e in entries]
    else:
        records = []
        for i, e in enumerate(entries):
            t = time.perf_counter()
            if tracer is None:
                [rec] = vbridge.run_pipeline([e], config_of[e.name])
            else:
                [rec] = tracer.entry(i, lambda: vbridge.run_pipeline([e], config_of[e.name]))
            intervals.append((t, time.perf_counter()))
            records.append(rec)
            # the traced calls must be the ones that produced the row
            if tracer is not None:
                seen = {**call_results(vbridge.ResultRecord(e.name)), **tracer.results}
                if seen != call_results(rec):
                    mismatched.append(rec.name)
            speed.probe()
    t = time.perf_counter()
    if tracer is None:
        csv_text = vbridge.write_results(records, "csv")
    else:
        csv_text = tracer.timed("batch.render", lambda: vbridge.write_results(records, "csv"))
    render = (t, time.perf_counter())
    speed.probe(force=True)

    factors = [speed.factor(*iv) for iv in intervals]
    if args.mode == "pool":
        latencies_ms = [rec.elapsed_ms * f for part, f in zip(parts, factors) for rec in part]
    else:
        latencies_ms = [(end - start) * f * 1000.0 for (start, end), f in zip(intervals, factors)]
    timed = intervals + [render]
    scaled = factors + [speed.factor(*render)]
    out = {
        "setup_s": (setup[1] - setup[0]) * speed.factor(*setup),
        "setup_raw_s": setup[1] - setup[0],
        "wall_s": sum((end - start) * f for (start, end), f in zip(timed, scaled)),
        "wall_raw_s": sum(end - start for start, end in timed),
        "latencies_ms": latencies_ms,
        "names": [e.name for e in entries],
        "capped": sum(config is capped for config in config_of.values()),
        "csv": csv_text,
        "bad": record_checks(records, quandles) + mismatched,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.record:
        out["pool"] = pool
    if tracer is not None:
        out["spans_ms"] = tracer.totals_ms(lambda entry: scaled[-1 if entry is None else entry])
        out["counts"] = dict(tracer.counts)
        tracer.write(os.path.join(corpus.WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
