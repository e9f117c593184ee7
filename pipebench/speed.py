"""CPU-speed probes that put every timing on one reference speed.

On a shared virtual machine the same interpreter work can take 1.7 times
as long in one minute as in the next, because other tenants share the
physical cores.  A timing taken in a slow minute and one taken in a fast
minute then differ more than most changes under test.  So a pass times a
fixed slice of interpreter work (the probe) as it goes, and every measured
interval is scaled by ``PROBE_REF_S / probe``, with the median of the
probes taken during and within MARGIN_S of it: the result is the time the
interval would have taken at the speed where the probe needs PROBE_REF_S.
Raw times are reported too.

A serial pass probes between entries, on the core that does the work.  A
``run_pipeline`` call with a worker pool cannot be interrupted, so during
it a side process probes instead.  Run as a script, that process probes
every PROBE_EVERY_S until its standard input closes, then prints
``[[end_time, probe_s], ...]`` as JSON; ``time.perf_counter`` reads the
same monotonic clock in every process, so its times line up with the
caller's.  Either way the probes cost about 3% of one core.
"""

from __future__ import annotations

import contextlib
import json
import select
import statistics
import subprocess
import sys
import time

PROBE_REF_S = 0.0015  # probe time on an uncontended core of the reference machine
PROBE_EVERY_S = 0.05
MARGIN_S = 0.25


def probe() -> float:
    """Seconds taken by a fixed loop of integer and dict work."""
    start = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(15000):
        acc = (acc * 31 + i) % 1000003
        seen[i & 255] = acc
    return time.perf_counter() - start


class SpeedTrack:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, probe seconds)

    def probe(self, force: bool = False) -> None:
        """Probe here, unless the last probe is under PROBE_EVERY_S old."""
        if force or not self.samples or time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            p = probe()
            self.samples.append((time.perf_counter(), p))

    @contextlib.contextmanager
    def side_process(self):
        """Probe from a side process while the body runs."""
        proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            yield
        finally:
            out, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("speed probe process failed")
        self.samples += [tuple(s) for s in json.loads(out)]

    def factor(self, start: float, end: float) -> float:
        """Speed factor for the interval [start, end]."""
        near = [p for t, p in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        if not near:
            raise RuntimeError("no speed probe near a timed interval")
        return PROBE_REF_S / statistics.median(near)


def main() -> int:
    samples = []
    while True:
        p = probe()
        samples.append((time.perf_counter(), p))
        readable, _, _ = select.select([sys.stdin], [], [], PROBE_EVERY_S)
        if readable and not sys.stdin.read():
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
