import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import vbridge
import vbridge.batch

SRC = Path(__file__).resolve().parents[1] / "src"
TRACING = SRC.parent / "pipebench" / "tracing.py"


def test_import_loads_no_numpy_or_numba():
    # a subprocess, because the test oracles import numpy into this one
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import vbridge, sys; "
            "assert 'numpy' not in sys.modules and 'numba' not in sys.modules",
        ],
        env=env,
        check=True,
    )


def test_import_loads_no_fractions_and_builds_three_dataclasses():
    # a subprocess, because the tests load fractions into this one.  The
    # records are named tuples and GaussDiagram a slotted class; each class
    # left a dataclass has a field a tuple method would shadow, is derived
    # with dataclasses.replace, or is filled field by field
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = (
        "import sys, vbridge\n"
        "assert 'fractions' not in sys.modules\n"
        "import dataclasses, inspect, vbridge.cli\n"
        "found = {name for mod in list(sys.modules.values())\n"
        "         if mod.__name__.startswith('vbridge')\n"
        "         for name, cls in inspect.getmembers(mod, inspect.isclass)\n"
        "         if cls.__module__ == mod.__name__ and dataclasses.is_dataclass(cls)}\n"
        "assert found == {'CutSplitWitness', 'PipelineConfig', 'ResultRecord'}, found\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_parallel_batch_loads_no_executor():
    # a subprocess, so nothing else has loaded either module.  jobs=2 forks
    # one child and analyzes the other share in the calling process
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = (
        "import os, sys\n"
        "from vbridge.batch import PipelineConfig, ingest_table, run_pipeline\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.cpu_count = lambda: 2\n"
        f"entries, _ = ingest_table({str(SRC.parent / 'tests' / 'data' / 'sample_table.tsv')!r})\n"
        "records = run_pipeline(entries[:2], PipelineConfig(jobs=2))\n"
        "assert [r.name for r in records] == [e.name for e in entries[:2]] and forks == [1]\n"
        "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_pytest_finds_the_package_without_pythonpath():
    # pyproject.toml puts src/ on the path, so a plain checkout needs no
    # install; test_records.py imports the package's modules at its top
    root = SRC.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_records.py"],
        cwd=root,
        env=env,
        check=True,
        capture_output=True,
    )


def test_traced_benchmark_names_exist_in_batch():
    # the traced benchmark run replaces each BOUNDARY name on vbridge.batch
    # with a timing wrapper and checks rows against the wrapped calls, so a
    # renamed or dropped import would break it
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name in tracing.BOUNDARY if not hasattr(vbridge.batch, name)]
    assert tracing.BOUNDARY and not missing


def test_every_analyzed_entry_calls_the_search_once(monkeypatch):
    # the traced benchmark times the search and checks each row through
    # batch.wirtinger_number, so a memo hit must still go through that name
    calls = []
    real = vbridge.batch.wirtinger_number

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(vbridge.batch, "wirtinger_number", counted)
    codes = ["O1-U2-O3-U1-O2-U3-", "O3+U1+O2+U3+O1+U2+", "O1+U1+", "O1-U1-", "O1+", "O2-U1+O1+U2-"]
    entries = [vbridge.TableEntry(f"e{i}", code, i) for i, code in enumerate(codes)]
    records = vbridge.run_pipeline(entries)
    analyzed = [r for r in records if r.status == "ok"]
    assert len(analyzed) == 5 and len(calls) == 5
    assert [(r.omega_d, r.seed_set) for r in analyzed] == [(c.omega, c.seed_set) for c in calls]


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for module in ("vbridge", "vbridge.cli"):
        out = subprocess.run(
            [sys.executable, "-m", module, "bridge", "O1+U1+"],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        assert '"bridge_count": 1' in out, module


def test_every_exported_name_exists():
    # a stale __all__ entry breaks ``from vbridge import *``
    missing = [name for name in vbridge.__all__ if not hasattr(vbridge, name)]
    assert not missing and len(set(vbridge.__all__)) == len(vbridge.__all__)


def test_every_public_name_is_exported():
    # the reverse: a name __init__.py binds but __all__ leaves out is
    # missing from ``from vbridge import *``.  Submodules are bound too
    public = {
        name
        for name, value in vars(vbridge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public and not public - set(vbridge.__all__), public - set(vbridge.__all__)


def test_benchmark_smoke_passes():
    # tiny corpora through the benchmark runner, traced and untraced: a row
    # that differs from the reference CSV, a traced call that no longer
    # produces its row, a missing BOUNDARY name or a PipelineConfig that
    # dataclasses.replace rejects all fail it.  It writes only under the
    # ignored .pipebench_work/
    out = subprocess.run(
        [sys.executable, "pipebench/run.py", "--smoke"],
        cwd=SRC.parent,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0 and "smoke: PASS" in out.stdout, out.stdout + out.stderr
