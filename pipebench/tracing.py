"""Spans around the calls ``vbridge.batch`` makes into the other modules.

The benchmark replaces the module-level names that ``vbridge.batch``
imported (``parse_gauss_code``, ``wirtinger_number``, ...) with wrappers
that time each call and keep its result.  The pipeline code itself runs
unchanged; only the boundary between ``batch`` and each layer is observed.
Calls a layer makes inside itself (``search`` asking ``gauss`` for the
cached strand table, ``parity`` computing its own ideal bound) stay inside
the caller's span.

Spans are kept in memory as (id, parent, entry, name, start, end) and
written out once at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from vbridge.parity import gaussian_parity

# name imported by vbridge.batch -> span name; the part before the dot is
# the layer (a module of the package).
BOUNDARY = {
    "parse_gauss_code": "gauss.parse",
    "ensure_tail_per_component": "gauss.parse",
    "strand_table": "gauss.strand_table",
    "bridge_count": "gauss.strand_table",
    "wirtinger_number": "search.wirtinger",
    "ideal_lower_bound": "linkgroup.ideal",
    "parity_lower_bound": "parity.bound",
    "count_colorings": "quandle.count",
    "is_one_overbridge": "welded.certificate",
    "welded_unknot_certificate": "welded.certificate",
    "replay_certificate": "welded.certificate",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.results: dict[str, object] = {}  # per-call results of the current entry
        self._parent: int | None = None
        self._entry: int | None = None

    def install(self, batch_module) -> None:
        for name, span_name in BOUNDARY.items():
            setattr(batch_module, name, self._wrap(getattr(batch_module, name), name, span_name))

    def _record(self, name: str, start: float, end: float) -> int:
        span_id = len(self.spans)
        self.spans.append((span_id, self._parent, self._entry, name, start, end))
        return span_id

    def _wrap(self, fn, fn_name: str, span_name: str):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self._record(span_name, start, time.perf_counter())
            self._observe(fn_name, args, kwargs, result)
            return result

        return traced

    def _observe(self, fn_name: str, args, kwargs, result) -> None:
        """Work counters and the per-call results the row is checked
        against; computed outside the span."""
        if fn_name == "strand_table":
            self.counts["gauss.strands"] += result.n_strands
            self.results["strands"] = result.n_strands
        elif fn_name == "bridge_count":
            self.results["vbD"] = result
        elif fn_name == "wirtinger_number":
            self.counts["search.subsets"] += result.stats.subsets_examined
            self.counts["search.saturation_steps"] += result.stats.saturation_steps
            self.results["omegaD"] = result.omega
            self.results["seed_set"] = result.seed_set
        elif fn_name == "ideal_lower_bound":
            self.counts["linkgroup.calls"] += 1
            self.results["ideal_lb"] = result.bound
        elif fn_name == "parity_lower_bound":
            parity = gaussian_parity(args[0])
            self.counts["parity.projection_chords"] += sum(1 for bit in parity.values() if bit == 0)
            self.results["parity_lb"] = result.bound
        elif fn_name == "count_colorings":
            quandle = args[1]
            self.counts["quandle.assignments"] += quandle.order ** kwargs["result"].omega
        elif fn_name == "welded_unknot_certificate":
            self.counts["welded.moves"] += len(result.moves)

    def entry(self, index: int, fn):
        """Run ``fn`` as entry ``index``; layer calls become its children."""
        self._entry = index
        self.results = {}
        span_id = len(self.spans)
        self.spans.append(None)  # filled in when the entry ends
        self._parent = span_id
        start = time.perf_counter()
        out = fn()
        self.spans[span_id] = (span_id, None, index, "batch.entry", start, time.perf_counter())
        self._parent = self._entry = None
        return out

    def timed(self, name: str, fn):
        """Run ``fn`` as a top-level span of its own."""
        start = time.perf_counter()
        out = fn()
        self._record(name, start, time.perf_counter())
        return out

    def totals_ms(self, factor_of) -> dict[str, float]:
        """Per span name: total milliseconds and self milliseconds (the
        total minus the part covered by child spans), each span scaled by
        ``factor_of(entry)``."""
        total: Counter = Counter()
        child: Counter = Counter()
        name_of = {sid: name for sid, _, _, name, _, _ in self.spans}
        for sid, parent, entry, name, start, end in self.spans:
            ms = (end - start) * 1000.0 * factor_of(entry)
            total[name] += ms
            if parent is not None:
                child[name_of[parent]] += ms
        out = {}
        for name in total:
            out[name] = total[name]
            out[name + ".self"] = total[name] - child[name]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, entry, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "entry": entry, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
