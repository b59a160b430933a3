"""Layer tracer that wraps the package's public functions from outside.

install() rebinds each traced function in every loaded boxnodes module that
holds it (the defining module, modules that imported it by name, and the
package namespace), so calls within and across layers all pass through a
wrapper. Each wrapper keeps a span (name, start, end, parent, job) and
updates per-layer counters; a layer's self time is its spans' time minus the
time of the spans they enclose. The objective handed to a numerics solver is
wrapped too, as a span of the caller's layer, so solver time is net of it.

Spans are kept in memory up to a cap and written out at the end; counters
and self times keep accumulating past the cap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# the functions that form each layer's public surface
LAYER_FUNCTIONS = {
    "well": ("eigenfunction", "evaluate_psi", "density_exact", "density_closed_form"),
    "numerics": ("composite_simpson", "bisect_root", "golden_min"),
    "nodes": ("analytic_node_position", "find_real_part_zeros", "find_density_minima",
              "exact_zero_times", "track_trajectory"),
    "analysis": ("oscillation_extrema", "amplitude_sweep", "fit_power_law",
                 "time_avg_node_position", "time_avg_density", "heatmap"),
    "verify": ("run_verification",),
    "output": ("write_rows", "write_json_object"),
    "cli": ("main",),
}

# called once per solver step or grid point: counted and timed, but with no
# per-call duration list
_HOT_LAYERS = ("well", "numerics")
_HOT_KEYS = ("nodes.analytic_node_position",)

SPAN_CAP = 50_000

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.span_cap = span_cap
        self.job = None
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_durations: dict[str, list[int]] = defaultdict(list)
        self.counters: dict[str, int] = defaultdict(int)

    # ---- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded boxnodes module."""
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"boxnodes.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "boxnodes" and not mod_name.startswith("boxnodes."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # ---- spans -------------------------------------------------------

    def _enter(self, key: str, layer: str, keep: bool) -> list:
        frame = [key, layer, 0, 0, self._next_id, False, keep]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = _clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        key, layer, start, child_ns, span_id, golden_child, keep = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        self.self_ns[layer] += duration - child_ns
        self.calls[key] += 1
        if keep:
            self.durations[key].append(duration)
            self.self_durations[key].append(duration - child_ns)
        if key == "numerics.golden_min":
            for outer in reversed(stack):
                if outer[0] == "numerics.golden_min":
                    outer[5] = True
                    break
            # a refinement in time: golden_min under exact_zero_times that
            # itself drives golden_min searches in space
            if golden_child and any(f[0] == "nodes.exact_zero_times" for f in stack):
                self.counters["t_refinements"] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, key, start, end,
                               None if parent is None else parent[4], self.job))
        else:
            self.spans_dropped += 1

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        keep = layer not in _HOT_LAYERS and key not in _HOT_KEYS
        solver = name in ("bisect_root", "golden_min")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            caller = stack[-1] if stack else None
            if layer == "well" and (caller is None or caller[1] != "well"):
                tracer._count_well_entry(args, kwargs)
            elif solver and args:
                args = (tracer._objective(args[0], caller),) + args[1:]
            elif key == "nodes.analytic_node_position" and caller is not None \
                    and caller[1] == "analysis":
                tracer.counters["node_pos_from_analysis"] += 1
            frame = tracer._enter(key, layer, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if key == "nodes.exact_zero_times":
                tracer.counters["zero_times_returned"] += len(result)
            elif layer == "output":
                tracer._count_output(name, args, kwargs)
            return result

        return traced

    def _objective(self, f, caller):
        key = f"{caller[1] if caller is not None else 'client'}.objective"
        layer = key.split(".")[0]
        tracer = self

        def objective(x):
            tracer.counters["f_evals"] += 1
            frame = tracer._enter(key, layer, False)
            try:
                return f(x)
            finally:
                tracer._exit(frame)

        return objective

    def _count_well_entry(self, args, kwargs) -> None:
        x = args[2] if len(args) > 2 else kwargs["x"]
        t = args[3] if len(args) > 3 else kwargs.get("t", 0.0)  # eigenfunction has no t
        c = self.counters
        c["well_entries"] += 1
        if type(x) is float and type(t) is float:  # the solvers' scalar calls, cheaply
            c["well_scalar"] += 1
            c["well_points"] += 1
            return
        if np.ndim(x) == 0:
            c["well_scalar"] += 1
        c["well_points"] += int(np.broadcast(np.asarray(x), np.asarray(t)).size)

    def _count_output(self, name: str, args, kwargs) -> None:
        if name == "write_rows":
            spec = args[0] if args else kwargs["spec"]
            rows = args[2] if len(args) > 2 else kwargs["rows"]
            self.counters["output_rows"] += len(rows)
            path = spec.path
        else:
            path = args[0] if args else kwargs["path"]
        self.counters["output_bytes"] += os.path.getsize(path)

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, name, start_ns, end_ns, parent_id, job]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
