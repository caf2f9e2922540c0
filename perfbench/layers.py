"""Per-layer tracing from outside the program.

The tracer rebinds each layer's public functions, in every ``heatsource``
module that holds them under a name, to wrappers that record spans.  A
module that did ``from .objective import cost`` calls its own binding, so
rebinding only the home module would miss those calls.  Spans are
``[name, start, end, parent, pass_id]`` lists kept in memory and written
out when the run ends; self time is a span's time minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

import heatsource as hs
import heatsource.cli  # noqa: F401  (bind hs.cli)

# layer -> public functions wrapped in it ("Class.method" for methods).
LAYERS = {
    "kernels": ("exp_moment_stack", "sine_moment_stack", "sin_modes",
                "mode_count"),
    "model": ("sensitivity_tables", "theta_response_profile",
              "theta_response_history", "phi_response_profile",
              "phi_response_history"),
    "objective": ("cost", "gradient", "residuals", "ridge_solve"),
    "solver": ("solve", "stationarity_check"),
    "harness": ("generate_measurements", "ManufacturedCase.fit_params",
                "rmse_report", "invert_case", "sweep",
                "emit_sensitivity_data"),
    "output": ("write_csv", "write_key_values"),
    "cli": ("main", "parse_config", "dispatch"),
}

# Span names whose time inside a solve is not CG iteration time.
_NOT_ITERATION = ("model.sensitivity_tables", "solver.stationarity_check")


def _span_name(layer, attr):
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and argument-derived counters of the traced passes."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.pass_id = -1
        self.counters = defaultdict(Counter)  # pass_id -> counts
        self.table_keys = defaultdict(set)  # pass_id -> built table keys
        self.solves = defaultdict(list)  # pass_id -> solve records
        self.originals = {}  # span name -> unwrapped function
        self._signatures = {}
        self._bindings = []  # (owner, attr, original, wrapper)
        self._observers = {
            "kernels.exp_moment_stack": self._observe_exp_moments,
            "kernels.sin_modes": self._observe_sin_modes,
            "model.sensitivity_tables": self._observe_tables,
            "solver.solve": self._observe_solve,
            "output.write_csv": self._observe_csv,
        }
        self._plan()

    # -- wrapping ----------------------------------------------------------

    def _plan(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "heatsource" or name.startswith("heatsource."))
                   and m is not None]
        for layer, attrs in LAYERS.items():
            home = getattr(hs, layer)
            for attr in attrs:
                name = _span_name(layer, attr)
                cls_name, _, leaf = attr.rpartition(".")
                owner = getattr(home, cls_name, None) if cls_name else home
                orig = getattr(owner, leaf, None)
                if orig is None:
                    print(f"perfbench: {layer}.{attr} not found; not traced",
                          file=sys.stderr)
                    continue
                self.originals[name] = orig
                wrapper = self._wrap(name, orig)
                for holder in ([owner] if cls_name else modules):
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._bindings.append((holder, key, orig, wrapper))

    def _wrap(self, name, orig):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observers.get(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      tracer.pass_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = orig(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(orig, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)

    def import_sites(self):
        """Where each wrapped function is rebound, as 'module.attr' names."""
        return sorted(f"{getattr(o, '__name__', o)}.{a}"
                      for o, a, _, _ in self._bindings)

    # -- observers (run after the span closes) -----------------------------

    def _arguments(self, orig, args, kwargs):
        sig = self._signatures.get(orig)
        if sig is None:
            sig = self._signatures[orig] = inspect.signature(orig)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _observe_exp_moments(self, orig, args, kwargs, result):
        bound = self._arguments(orig, args, kwargs)
        lam_sq = np.asarray(bound["lam_sq"], dtype=float)
        t = np.asarray(bound["t"], dtype=float)
        max_power = int(bound["max_power"])
        switch = max(getattr(hs.kernels, "_SERIES_SWITCH_BASE", 30.0),
                     2.0 * max_power)
        c = self.counters[self.pass_id]
        c["exp.elems"] += (max_power + 1) * lam_sq.size * t.size
        c["exp.pairs"] += lam_sq.size * t.size
        c["exp.series_pairs"] += int(np.count_nonzero(
            np.multiply.outer(lam_sq, t) < switch))

    def _observe_sin_modes(self, orig, args, kwargs, result):
        modes = self._arguments(orig, args, kwargs)["modes"]
        c = self.counters[self.pass_id]
        c["sin_modes.modes_max"] = max(c["sin_modes.modes_max"],
                                       np.asarray(modes).size)

    def _observe_tables(self, orig, args, kwargs, result):
        key = (result.geom, result.mesh.x_nodes.tobytes(),
               result.mesh.t_nodes.tobytes(), result.n_x, result.n_t,
               result.trunc)
        keys = self.table_keys[self.pass_id]
        if key in keys:
            self.counters[self.pass_id]["tables.repeats"] += 1
        keys.add(key)

    def _observe_solve(self, orig, args, kwargs, result):
        report = result[2]
        self.solves[self.pass_id].append({
            "args": self._arguments(orig, args, kwargs),
            "status": report.status,
            "iterations": int(report.iterations),
            "final_cost": float(report.final_cost),
        })

    def _observe_csv(self, orig, args, kwargs, result):
        self.counters[self.pass_id]["csv.bytes"] += os.path.getsize(result)

    # -- aggregation -------------------------------------------------------

    def pass_metrics(self, pass_id, pass_seconds):
        """Per-layer metrics of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time = Counter()
        busy = Counter()
        calls = Counter()
        self_time = Counter()
        top_level = 0.0
        for i, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_level += end - start
        loop_time = 0.0
        for i, (name, start, end, parent, _) in spans:
            calls[name] += 1
            busy[name] += end - start
            self_time[name] += end - start - child_time[i]
            if name == "solver.solve":
                loop_time += end - start
        for i, (name, start, end, parent, _) in spans:
            if parent >= 0 and name in _NOT_ITERATION \
                    and self.spans[parent][0] == "solver.solve":
                loop_time -= end - start

        c = self.counters[pass_id]
        solves = self.solves[pass_id]
        iterations = sum(s["iterations"] for s in solves)
        metrics = {}
        for name in self.originals:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.busy_s"] = busy[name]
            metrics[f"{name}.self_s"] = self_time[name]
        metrics.update({
            "kernels.exp_moment_stack.elems": c["exp.elems"],
            "kernels.exp_moment_stack.series_frac":
                c["exp.series_pairs"] / c["exp.pairs"] if c["exp.pairs"] else 0.0,
            "kernels.sin_modes.modes_max": c["sin_modes.modes_max"],
            "kernels.truncation_warnings": c["truncation_warnings"],
            "model.sensitivity_tables.repeat_frac":
                c["tables.repeats"] / calls["model.sensitivity_tables"]
                if calls["model.sensitivity_tables"] else 0.0,
            "solver.iterations": iterations,
            "solver.iterations_max":
                max((s["iterations"] for s in solves), default=0),
            "solver.converged_frac":
                sum(s["status"] == "converged" for s in solves) / len(solves)
                if solves else 0.0,
            "solver.us_per_iter":
                1e6 * loop_time / iterations if iterations else 0.0,
            "objective.residuals_per_iter":
                calls["objective.residuals"] / iterations if iterations else 0.0,
            "output.write_csv.bytes": c["csv.bytes"],
            "trace.coverage": top_level / pass_seconds,
        })
        return metrics

    def solve_lines(self, pass_id):
        """One record per solve of the pass, with the ridge_solve floor cost
        computed by the unwrapped functions outside any span."""
        by_geometry = {}
        for case_name in hs.harness.CASES:
            g = hs.harness.get_case(case_name).geometry
            by_geometry[(g.offset, g.length, g.t_final)] = case_name
        lines = []
        for s in self.solves[pass_id]:
            a = s["args"]
            geom = a["geom"]
            tables = a.get("tables") or self.originals["model.sensitivity_tables"](
                geom, a["mesh"], a["n_x"], a["n_t"], a["trunc"])
            floor_params = self.originals["objective.ridge_solve"](
                a["meas"], a["obj_cfg"], tables)
            floor = self.originals["objective.cost"](
                floor_params, a["meas"], a["obj_cfg"], tables)
            lines.append({
                "case": by_geometry.get(
                    (geom.offset, geom.length, geom.t_final), "custom"),
                "n_x": a["n_x"], "n_t": a["n_t"], "x_star": geom.sensor,
                "alpha": a["obj_cfg"].alpha, "status": s["status"],
                "iterations": s["iterations"], "final_cost": s["final_cost"],
                "floor_cost": floor,
            })
        return lines


def cost_over_floor_max(lines):
    return max((ln["final_cost"] / ln["floor_cost"] for ln in lines
                if ln["floor_cost"] > 0.0), default=0.0)


class TracedPass:
    """Context for one traced pass: wrappers installed and active, warnings
    of the truncation policy counted."""

    def __init__(self, tracer, pass_id):
        self.tracer = tracer
        self.pass_id = pass_id

    def __enter__(self):
        self._warnings = warnings.catch_warnings(record=True)
        self.caught = self._warnings.__enter__()
        warnings.simplefilter("always")
        self.tracer.pass_id = self.pass_id
        self.tracer.install()
        self.tracer.active = True
        return self

    def __exit__(self, *exc):
        self.tracer.active = False
        self.tracer.uninstall()
        self._warnings.__exit__(*exc)
        self.tracer.counters[self.pass_id]["truncation_warnings"] = sum(
            issubclass(w.category, hs.TruncationWarning) for w in self.caught)
        return False


def median_metrics(per_pass):
    """Median over passes of each metric; counts stay whole numbers."""
    medians = {}
    for key in per_pass[0]:
        vals = [m[key] for m in per_pass]
        whole = all(isinstance(v, int) for v in vals)
        medians[key] = (statistics.median_low if whole
                        else statistics.median)(vals)
    return medians
