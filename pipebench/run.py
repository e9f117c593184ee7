#!/usr/bin/env python3
"""Pipeline benchmark for ``vbridge batch``.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --workload all     # every workload, table only
    python3 pipebench/run.py --smoke            # a few seconds, tiny corpora
    python3 pipebench/run.py --record [--workload NAME]  # rewrite pools, references

Run from the root of a source checkout; the package is imported from
``src/``, which must be present.  Workloads (corpora are described in
corpus.py):

  knots-ideal   the sample table plus random knots of 5-9 chords, jobs=1,
                no quandles: the Fox-calculus ideal bound does nearly all
                the work.
  links-search  random 2- and 3-component links of 20-32 chords, jobs=1,
                quandles R3 and R5: Wirtinger subset enumeration and the
                |X|^omega quandle loop; the knot-only bounds skip.
  census-jobs2  every knot code with <= 4 chords with seeded signs, plus
                one-overbridge knots of 30-100 chords, through
                ``run_pipeline`` with jobs=2 as ``vbridge batch --jobs 2``
                runs it: per-entry overhead and the worker pool.

With ``--trace 0`` the timed passes run, each in a fresh process, until
``--seconds`` have passed (at least MIN_PASSES), and the end-to-end metrics
are medians over passes; entry latencies are pooled over passes.  With
``--trace 1`` one untraced jobs=1 pass, the jobs=2 pass on census-jobs2,
and one traced pass give the per-layer metrics.  Times are scaled to the
reference CPU speed of speed.py.  Every record of every pass is compared
with the reference CSV recorded for the pool; the last line of output is
one JSON object.

Each corpus is written to ``.pipebench_work/<workload>-<seed>.tsv`` and can
be rerun with ``vbridge batch``.  Knots over corpus.IDEAL_STRAND_CAP strands
run without the ideal and parity analyses, which the command line cannot
switch off; their reference rows leave those two cells empty.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 2
SETUP_SAMPLES = 5  # set-up times per run; short runs add set-up-only processes
RUN_BUDGET_S = 150  # no new pass starts if it could end past this
SMOKE_GROUPS = 4

# (name, unit) in output order
END_TO_END = [
    ("wall_s", "s"),
    ("diagrams_per_s", "1/s"),
    ("entry_ms_p50", "ms"),
    ("entry_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("gauss.parse_ms", "ms"),
    ("gauss.strand_table_ms", "ms"),
    ("gauss.strands", "count"),
    ("search.ms", "ms"),
    ("search.subsets", "count"),
    ("search.saturation_steps", "count"),
    ("search.subsets_per_s", "1/s"),
    ("search.share", "ratio"),
    ("linkgroup.ideal_ms", "ms"),
    ("linkgroup.calls", "count"),
    ("linkgroup.capped", "count"),
    ("parity.ms", "ms"),
    ("parity.projection_chords", "count"),
    ("quandle.ms", "ms"),
    ("quandle.assignments", "count"),
    ("welded.ms", "ms"),
    ("welded.moves", "count"),
    ("batch.render_ms", "ms"),
    ("batch.self_ms", "ms"),
    ("batch.parallel_efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]
# span names of the layers below batch (tracing.BOUNDARY)
LAYER_SPANS = {
    "gauss.parse_ms": "gauss.parse",
    "gauss.strand_table_ms": "gauss.strand_table",
    "search.ms": "search.wirtinger",
    "linkgroup.ideal_ms": "linkgroup.ideal",
    "parity.ms": "parity.bound",
    "quandle.ms": "quandle.count",
    "welded.ms": "welded.certificate",
}


# work counters kept by tracing.Tracer
COUNTERS = [
    "gauss.strands",
    "search.subsets",
    "search.saturation_steps",
    "linkgroup.calls",
    "parity.projection_chords",
    "quandle.assignments",
    "welded.moves",
]


def run_worker(workload: str, seed: int, mode: str, groups=None, record=False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if groups is not None:
        cmd += ["--groups", str(groups)]
    if record:
        cmd.append("--record")
    # fixed string hashing, so set and dict layouts are the same in every pass
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=RUN_BUDGET_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} on {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference(workload: str) -> dict[str, str]:
    """Reference rows by name; the header row is under "name"."""
    with open(corpus.reference_path(workload), encoding="utf-8") as fh:
        return {line.split(",", 1)[0]: line for line in fh.read().splitlines()}


def failed_names(result: dict, reference: dict[str, str]) -> set[str]:
    """Records that are not ``ok``, differ from their reference row, or
    failed a check inside the worker."""
    lines = result["csv"].splitlines()
    rows = {line.split(",", 1)[0]: line for line in lines[1:]}
    bad = set(result["bad"])
    for name in result["names"]:
        row = rows.get(name)
        if row is None or row != reference.get(name) or row.split(",")[-2] != "ok":
            bad.add(name)
    if lines[0] != reference["name"]:
        bad.update(result["names"])
    return bad


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    latencies = [ms for p in passes for ms in p["latencies_ms"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "diagrams_per_s": statistics.median(len(p["names"]) / p["wall_s"] for p in passes),
        "entry_ms_p50": statistics.median(latencies),
        "entry_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: dict, traced: dict, pooled: dict | None, jobs: int) -> dict[str, float]:
    spans, counts = traced["spans_ms"], traced["counts"]
    out = {metric: spans.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    out.update({name: counts.get(name, 0) for name in COUNTERS})
    layer_ms = sum(out[m] for m in LAYER_SPANS)
    render_ms = spans["batch.render"]
    traced_ms = traced["wall_s"] * 1000.0
    timed = untraced if pooled is None else pooled
    search_s = out["search.ms"] / 1000.0
    out.update({
        "search.subsets_per_s": out["search.subsets"] / search_s if search_s else 0.0,
        "search.share": out["search.ms"] / traced_ms,
        "linkgroup.capped": traced["capped"],
        "batch.render_ms": render_ms,
        "batch.self_ms": spans["batch.entry.self"],
        "batch.parallel_efficiency": layer_ms / 1000.0 / (jobs * timed["wall_s"]),
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    })
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, groups=None,
            reference=None) -> tuple[dict, dict]:
    """Run one benchmark; returns (metrics, tally) where the tally holds
    attempted/failed record counts and notes for the human report."""
    reference = reference if reference is not None else load_reference(workload)
    if trace:
        untraced = run_worker(workload, seed, "serial", groups)
        pooled = run_worker(workload, seed, "pool", groups) if workload in corpus.JOBS else None
        traced = run_worker(workload, seed, "traced", groups)
        passes = [p for p in (untraced, pooled, traced) if p is not None]
        metrics = per_layer(untraced, traced, pooled, corpus.JOBS.get(workload, 1))
        # run_pipeline promises the same output whatever the worker count
        same_csv = all(p["csv"] == untraced["csv"] for p in passes)
        note = f"untraced, {'jobs=2, ' if pooled else ''}traced passes"
    else:
        mode = "pool" if workload in corpus.JOBS else "serial"
        passes = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(run_worker(workload, seed, mode, groups))
            elapsed, last = time.perf_counter() - start, time.perf_counter() - t
            if len(passes) >= MIN_PASSES and elapsed >= seconds:
                break
            if elapsed + last > RUN_BUDGET_S:
                break
        setups = [p["setup_s"] for p in passes]
        setups += [run_worker(workload, seed, "setup", groups)["setup_s"]
                   for _ in range(SETUP_SAMPLES - len(setups))]
        metrics = end_to_end(passes, setups)
        same_csv = True
        raw_wall = statistics.median(p["wall_raw_s"] for p in passes)
        raw_setup = statistics.median(p["setup_raw_s"] for p in passes)
        note = (f"{len(passes)} {mode} passes; unscaled wall {raw_wall:.6g} s, "
                f"set-up {raw_setup:.6g} s")
    failed = sum(len(failed_names(p, reference)) for p in passes)
    attempted = sum(len(p["names"]) for p in passes)
    tally = {
        "attempted": attempted,
        "failed": failed,
        "same_csv": same_csv,
        "samples": sum(len(p["latencies_ms"]) for p in passes),
        "records": len(passes[0]["names"]),
        "note": note,
    }
    return metrics, tally


def report(workload: str, seed: int, metrics: dict, tally: dict, units: list) -> None:
    print(f"{workload} seed {seed}: {tally['records']} records, {tally['note']}")
    for name, unit in units:
        extra = f"  (n={tally['samples']})" if name.startswith("entry_ms") else ""
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}{extra}")
    ratio = tally["failed"] / tally["attempted"]
    print(f"  {'failed_ratio':<28} {ratio:>14.6g} ratio  ({tally['failed']}/{tally['attempted']})")
    if not tally["same_csv"]:
        print("  jobs=2 and traced CSV differ from the jobs=1 CSV")


def record(workloads) -> int:
    """Generate every pool from corpus.POOL_SEED, analyze it twice, group it
    by mean scaled cost and write the pool table and its reference CSV."""
    for workload in workloads:
        runs = [run_worker(workload, corpus.POOL_SEED, "serial", record=True) for _ in range(2)]
        result = runs[0]
        cost_ms = {name: statistics.mean(r["latencies_ms"][i] for r in runs)
                   for i, name in enumerate(result["names"])}
        candidates = result["pool"]
        groups = corpus.group_by_cost(candidates, cost_ms)
        corpus.write_pool(corpus.pool_path(workload), groups,
                          f"{workload} pool, seed {corpus.POOL_SEED}; a run takes one entry per group")
        header, *rows = result["csv"].splitlines()
        row_of = {row.split(",", 1)[0]: row for row in rows}
        with open(corpus.reference_path(workload), "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(row_of[name] + "\n" for members in groups for name, _ in members)
        print(f"{workload}: {len(candidates)} entries in {len(groups)} groups, "
              f"{sum(cost_ms.values()) / 1000:.1f} s")
    return 0


def smoke() -> int:
    """Tiny corpora: every metric prints with its unit, and a corrupted
    reference row is counted as failed."""
    ok = True
    for workload in corpus.WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            metrics, tally = measure(workload, 1, 0, trace, groups=SMOKE_GROUPS)
            report(workload, 1, metrics, tally, units)
            if set(metrics) != {name for name, _ in units} or tally["failed"] or not tally["same_csv"]:
                print(f"FAIL {workload}: missing metrics or failed records")
                ok = False
        reference = load_reference(workload)
        name = corpus.sample(corpus.read_pool(corpus.pool_path(workload))[:1], 1)[0][0]
        reference[name] = reference[name].replace(",ok,", ",error(wrong),")
        _, tally = measure(workload, 1, 0, False, groups=SMOKE_GROUPS, reference=reference)
        if tally["failed"] != MIN_PASSES:  # the wrong row, once per pass
            print(f"FAIL {workload}: corrupted reference row counted {tally['failed']} times")
            ok = False
    print("smoke: PASS" if ok else "smoke: FAIL")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=corpus.POOL_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "vbridge", "__init__.py")):
        print(f"no vbridge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        return record(workloads)
    if args.smoke:
        return smoke()

    units = PER_LAYER if args.trace else END_TO_END
    correct = True
    for workload in workloads:
        metrics, tally = measure(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, args.seed, metrics, tally, units)
        correct = correct and tally["failed"] == 0 and tally["same_csv"]
    if args.workload != "all":
        print(json.dumps({
            "correct": correct,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }))
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
