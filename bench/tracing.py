"""Span tracing of surfspline's public functions, installed from outside the library.

Each wrapped name gets a wrapper that records one span per call: name, start,
end, parent span, repeat id and whether the call raised.  Functions are
wrapped at every name a module looks them up by (``surfspline.density``
calls ``build_reproduction`` through its own module global, not through
``surfspline.polyrep``), so a call is traced whichever module makes it.
Spans stay in memory until the run ends; the per-layer metrics are computed
from them afterwards.

A self time is a span's duration minus the time covered by its direct child
spans, so the self times of one repeat add up to the time spent inside
traced calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: (module, attribute path, span name).  Attribute paths with a dot name a
#: class attribute; ``COMMANDS[...]`` names an entry of the CLI's dispatch
#: table, which is how ``surfspline.cli.main`` finds its subcommands.
WRAPS = [
    ("surfspline.centers", "CenterSet.__init__", "centers.build"),
    ("surfspline.centers", "CenterSet.neighbor_arrays", "centers.query"),
    ("surfspline.centers", "sorted_candidate_radii", "centers.query"),
    ("surfspline.density", "sorted_candidate_radii", "centers.query"),
    ("surfspline.polyrep", "build_reproduction", "polyrep.solve"),
    ("surfspline.density", "build_reproduction", "polyrep.solve"),
    ("surfspline.quasiinterp", "build_reproduction", "polyrep.solve"),
    ("surfspline.polyrep", "refine_weights", "polyrep.refine"),
    ("surfspline.density", "minimal_density", "density.query"),
    ("surfspline.cli", "minimal_density", "density.query"),
    ("surfspline.quasiinterp", "minimal_density", "density.query"),
    ("surfspline.placement", "minimal_density", "density.query"),
    ("surfspline.density", "certify_slow_growth", "density.certify"),
    ("surfspline.density", "certify_self_majorization", "density.certify"),
    ("surfspline.cli", "certify_slow_growth", "density.certify"),
    ("surfspline.cli", "certify_self_majorization", "density.certify"),
    ("surfspline.density", "majorant", "density.majorant"),
    ("surfspline.cli", "majorant", "density.majorant"),
    ("surfspline.placement", "generate_centers", "placement.generate"),
    ("surfspline.cli", "generate_centers", "placement.generate"),
    ("surfspline.kernels", "phi_radial", "kernels.phi"),
    ("surfspline.quasiinterp", "phi_radial", "kernels.phi"),
    ("surfspline.kernels", "local_kernel_error_precise", "kernels.error_precise"),
    ("surfspline.quasiinterp", "quadrature_cells", "quasiinterp.cells"),
    ("surfspline.quasiinterp", "assemble", "quasiinterp.assemble"),
    ("surfspline.quasiinterp", "evaluate", "quasiinterp.evaluate"),
    ("surfspline.dyadic", "enumerate_cubes", "dyadic.enumerate"),
    ("surfspline.cli", "enumerate_cubes", "dyadic.enumerate"),
    ("surfspline.dyadic", "classify", "dyadic.classify"),
    ("surfspline.cli", "classify", "dyadic.classify"),
    ("surfspline.dyadic", "bad_cube_bound_check", "dyadic.bound"),
    ("surfspline.cli", "bad_cube_bound_check", "dyadic.bound"),
    ("surfspline.dyadic", "overlap_count", "dyadic.overlap"),
    ("surfspline.cli", "overlap_count", "dyadic.overlap"),
    ("surfspline.cli", "load_config", "cli.read"),
    ("surfspline.cli", "read_centers", "cli.read"),
    ("surfspline.cli", "read_density", "cli.read"),
    ("surfspline.cli", "write_centers", "cli.write"),
    ("surfspline.cli", "write_density", "cli.write"),
    ("surfspline.cli", "write_csv", "cli.write"),
    ("surfspline.cli", "write_json", "cli.write"),
    ("surfspline.cli", "COMMANDS[place]", "cli.command"),
    ("surfspline.cli", "COMMANDS[density]", "cli.command"),
    ("surfspline.cli", "COMMANDS[study]", "cli.command"),
    ("surfspline.cli", "COMMANDS[dyadic]", "cli.command"),
]


def _count_points(args, kwargs, result):
    x, params = args[1], args[2]
    return np.asarray(x).size // params.d


#: Counters read off a wrapped call: span name -> (counter, function of
#: (args, kwargs, result)).  Bytes are counted at the two innermost writers
#: only, so a file written by ``write_centers`` through ``write_csv`` counts once.
COUNTERS = {
    "placement.generate": ("placement.centers_generated", lambda a, k, r: len(r)),
    "quasiinterp.cells": ("quasiinterp.cells", lambda a, k, r: len(r[0])),
    "quasiinterp.evaluate": ("quasiinterp.evaluate_points", _count_points),
    "dyadic.enumerate": ("dyadic.cubes", lambda a, k, r: len(r)),
}
BYTE_WRITERS = {"write_csv", "write_json"}

#: Span name -> (calls metric or None, self-time metric or None).
SPAN_METRICS = {
    "centers.build": ("centers.build_calls", "centers.build_s"),
    "centers.query": ("centers.query_calls", "centers.query_s"),
    "polyrep.solve": ("polyrep.solve_calls", "polyrep.solve_s"),
    "polyrep.refine": ("polyrep.refine_calls", "polyrep.refine_s"),
    "density.query": ("density.query_calls", "density.query_s"),
    "density.certify": ("density.certify_calls", "density.certify_s"),
    "density.majorant": (None, "density.majorant_s"),
    "placement.generate": (None, "placement.generate_s"),
    "kernels.phi": ("kernels.phi_calls", "kernels.phi_s"),
    "kernels.error_precise": ("kernels.error_precise_calls", "kernels.error_precise_s"),
    "quasiinterp.cells": (None, "quasiinterp.cells_s"),
    "quasiinterp.assemble": (None, "quasiinterp.assemble_s"),
    "quasiinterp.evaluate": (None, "quasiinterp.evaluate_s"),
    "dyadic.enumerate": (None, "dyadic.enumerate_s"),
    "dyadic.classify": (None, "dyadic.classify_s"),
    "dyadic.bound": (None, "dyadic.bound_s"),
    "dyadic.overlap": ("dyadic.overlap_calls", "dyadic.overlap_s"),
    "cli.read": (None, "cli.read_s"),
    "cli.write": (None, "cli.write_s"),
    "cli.command": (None, "cli.command_self_s"),
}


class Tracer:
    """Collects spans while installed; :meth:`layer_metrics` summarizes them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, repeat, raised]
        self.counters = defaultdict(Counter)  # repeat -> counter -> value
        self.absent = []  # wrapped names the program no longer has
        self.repeat = None
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self, repeat: int) -> None:
        self.repeat = repeat
        for module_name, path, span in WRAPS:
            owner, key, original = _resolve(module_name, path)
            if original is None:
                if (module_name, path) not in self.absent:
                    self.absent.append((module_name, path))
                continue
            _set(owner, key, self._wrap(original, span, key))
            self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            _set(owner, key, original)
        self._patches.clear()
        self.repeat = None

    def _wrap(self, fn, span_name, key):
        counter = COUNTERS.get(span_name)
        counts_bytes = key in BYTE_WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            record = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                      self.repeat, False]
            self.spans.append(record)
            self._stack.append(sid)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            counts = self.counters[self.repeat]
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            if counts_bytes:
                counts["cli.bytes_written"] += os.path.getsize(args[0])
            return result

        return traced

    # -- summaries --------------------------------------------------------

    def repeat_metrics(self, repeat: int) -> tuple[dict, float]:
        """Per-layer metrics of one traced repeat, and its summed self time."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == repeat]
        child_time = defaultdict(float)
        for _, (_, start, end, parent, _, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        query_ms, query_ids = [], set()
        for i, (name, start, end, _, _, _) in spans:
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if name == "density.query":
                query_ms.append(1e3 * (end - start))
                query_ids.add(i)
        solves = [s for _, s in spans if s[0] == "polyrep.solve"]
        assemble_ids = {i for i, s in spans if s[0] == "quasiinterp.assemble"}
        out = {}
        for name, (calls_metric, self_metric) in SPAN_METRICS.items():
            if calls_metric:
                out[calls_metric] = calls[name]
            if self_metric:
                out[self_metric] = self_s[name]
        out["polyrep.solve_failed"] = sum(1 for s in solves if s[5])
        density_solves = sum(1 for s in solves if s[3] in query_ids)
        out["density.solves_per_query"] = density_solves / len(query_ids) if query_ids else 0.0
        p50, p90 = np.percentile(query_ms, [50, 90]) if query_ms else (0.0, 0.0)
        out["density.query_ms_p50"] = float(p50)
        out["density.query_ms_p90"] = float(p90)
        out["quasiinterp.assemble_solves"] = sum(1 for s in solves if s[3] in assemble_ids)
        counts = self.counters[repeat]
        for name in ("placement.centers_generated", "quasiinterp.cells",
                     "quasiinterp.evaluate_points", "dyadic.cubes", "cli.bytes_written"):
            out[name] = counts[name]
        return out, float(sum(self_s.values()))

    def layer_metrics(self, traced_runs: dict[int, float]) -> dict:
        """Median over the traced repeats (repeat id -> run_s) of each metric,
        plus the traced run time and the gap the self times leave of it."""
        per_repeat, gaps = [], []
        for repeat, run_s in traced_runs.items():
            metrics, self_total = self.repeat_metrics(repeat)
            per_repeat.append(metrics)
            gaps.append(run_s - self_total)
        out = {name: float(statistics.median(m[name] for m in per_repeat))
               for name in per_repeat[0]}
        out["trace.run_s"] = float(statistics.median(traced_runs.values()))
        out["trace.gap_s"] = float(statistics.median(gaps))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "repeat", "raised"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("per_query"):
        return "ratio"
    return "count"


def _resolve(module_name: str, path: str):
    """(owner, key, current value) for a wrap target; value None if absent."""
    owner = importlib.import_module(module_name)
    if path.startswith("COMMANDS["):
        table = getattr(owner, "COMMANDS", {})
        key = path[len("COMMANDS["):-1]
        return table, key, table.get(key)
    *parents, key = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, key, None
    return owner, key, getattr(owner, key, None)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
