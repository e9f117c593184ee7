import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
