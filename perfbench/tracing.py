"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions that the experiment functions
call, in the namespaces where those look them up: `bepo.experiments` imports
`assemble_matrix`, `simulate_paths` and the rest by name, and `bepo.cli`
imports `parse_config` and the `run_*` experiment functions by name. `ResolventSolver`
and the observers are wrapped on their classes. `src/bepo` is not changed.

Each call records a span (name, start, end, parent) in memory; the probe
writes the spans out when its process ends. `layer_metrics` turns the spans
of one run into the per-layer metrics. A function that a later version of
the program no longer has is not wrapped, and the metrics that depend on it
are left out rather than reported as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
import warnings

import numpy as np

# span name -> the (module, attribute) pairs wrapped under that name
FUNCTION_TARGETS = {
    "assembly.matrix": [("bepo.experiments", "assemble_matrix")],
    "assembly.rhs": [("bepo.experiments", "assemble_rhs")],
    "solver.extract": [
        ("bepo.experiments", "evaluate_statistic"),
        ("bepo.experiments", "magnitude_violations"),
    ],
    "sde.simulate": [("bepo.experiments", "simulate_paths")],
    "convergence.sup_diff": [("bepo.experiments", "sup_diff_on_common")],
    "config.parse": [("bepo.cli", "parse_config")],
}
METHOD_TARGETS = {
    "solver.factor": ("bepo.solver", "ResolventSolver", "__init__"),
    "solver.solve": ("bepo.solver", "ResolventSolver", "solve"),
    "sde.crossing_observer": ("bepo.sde", "CrossingObserver", "update"),
    "sde.band_observer": ("bepo.sde", "BandObserver", "update"),
}


def _path_steps(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return {"path_steps": cfg.n_paths * cfg.n_steps}


# span name -> function of the call's arguments giving extra span fields
SPAN_ATTRS = {"sde.simulate": _path_steps}
# the experiment call itself; the probe opens this span around `run_*`
EXPERIMENT_SPAN = "experiments.run"
# time spent checking residuals for the benchmark, not by the program
CHECK_SPAN = "trace.check"

# warnings ResolventSolver raises when it retries the factorization
FALLBACK_PREFIXES = (
    "ILU fell back",
    "ILU needed a diagonal shift",
    "incomplete factorization broke down",
)

# metric -> (unit, span names it needs)
LAYER_METRICS = {
    "assembly.matrix_s": ("s", ["assembly.matrix"]),
    "assembly.matrix_calls": ("count", ["assembly.matrix"]),
    "assembly.rhs_s": ("s", ["assembly.rhs"]),
    "solver.factor_s": ("s", ["solver.factor"]),
    "solver.factor_calls": ("count", ["solver.factor"]),
    "solver.factor_nnz": ("count", ["solver.factor"]),
    "solver.factor_fallbacks": ("count", ["solver.factor"]),
    "solver.solve_s": ("s", ["solver.solve"]),
    "solver.solve_calls": ("count", ["solver.solve"]),
    "solver.krylov_iterations": ("count", ["solver.solve"]),
    "solver.residual_rel_max": ("1", ["solver.solve"]),
    "solver.extract_s": ("s", ["solver.extract"]),
    "sde.simulate_s": ("s", ["sde.simulate"]),
    "sde.step_s": ("s", ["sde.simulate"]),
    "sde.path_steps_per_s": ("path-steps/s", ["sde.simulate"]),
    "sde.crossing_observer_s": ("s", ["sde.crossing_observer"]),
    "sde.band_observer_s": ("s", ["sde.band_observer"]),
    "convergence.sup_diff_s": ("s", ["convergence.sup_diff"]),
    "experiments.self_s": ("s", [EXPERIMENT_SPAN]),
    "config.parse_s": ("s", ["config.parse"]),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": self.clock(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs=None):
        """fn inside a span; attrs(args, kwargs) adds fields to the span."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record["attrs"].update(attrs(args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target the program still has."""
        for name, targets in FUNCTION_TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(fn, name, SPAN_ATTRS.get(name)))
                    self.installed.add(name)
        wrappers = {
            "solver.factor": self._factor_wrapper,
            "solver.solve": self._solve_wrapper,
        }
        for name, (module_name, cls_name, attr) in METHOD_TARGETS.items():
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            method = getattr(cls, attr, None) if cls is not None else None
            if method is None:
                continue
            make = wrappers.get(name)
            setattr(cls, attr, make(method) if make else self.wrap(method, name))
            self.installed.add(name)

    def _factor_wrapper(self, init):
        tracer = self

        def factor(solver, *args, **kwargs):
            caught = []
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with tracer.span("solver.factor") as record:
                        init(solver, *args, **kwargs)
            finally:
                for w in caught:  # hand them on as the untraced program would
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            record["attrs"]["fallbacks"] = sum(
                str(w.message).startswith(FALLBACK_PREFIXES) for w in caught
            )
            nnz = getattr(getattr(solver, "ilu", None), "nnz", None)
            if nnz is not None:
                record["attrs"]["nnz"] = int(nnz)

        return factor

    def _solve_wrapper(self, solve):
        tracer = self

        def traced_solve(solver, b, *args, **kwargs):
            with tracer.span("solver.solve") as record:
                report = solve(solver, b, *args, **kwargs)
            record["attrs"]["iterations"] = int(report.iterations)
            with tracer.span(CHECK_SPAN):
                bnorm = float(np.linalg.norm(b))
                residual = float(np.linalg.norm(b - solver.A @ report.v))
            record["attrs"]["residual_rel"] = residual / bnorm if bnorm > 0 else 0.0
            record["attrs"]["rel_tol"] = float(solver.cfg.rel_tol)
            return report

        return traced_solve


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        inside = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        ]
        inside = [(a, b) for a, b in inside if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered(inside)
    return out


def descendants(spans, root_id: int) -> list[dict]:
    """The span with id root_id and every span below it."""
    ids = {root_id}
    out = []
    for s in spans:  # parents are recorded before their children
        if s["id"] == root_id or s["parent"] in ids:
            ids.add(s["id"])
            out.append(s)
    return out


def layer_metrics(spans, installed) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: {name: (value, unit)}.

    Times are summed span durations, except `sde.step_s` and
    `experiments.self_s`, which are self times. A layer that did not run
    reads 0; a metric whose spans could not be installed is left out.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return float(sum(s["end"] - s["start"] for s in by_name.get(name, [])))

    def attrs(name, key):
        return [s["attrs"][key] for s in by_name.get(name, []) if key in s["attrs"]]

    simulate_s = total("sde.simulate")
    values = {
        "assembly.matrix_s": total("assembly.matrix"),
        "assembly.matrix_calls": len(by_name.get("assembly.matrix", [])),
        "assembly.rhs_s": total("assembly.rhs"),
        "solver.factor_s": total("solver.factor"),
        "solver.factor_calls": len(by_name.get("solver.factor", [])),
        "solver.factor_nnz": sum(attrs("solver.factor", "nnz")),
        "solver.factor_fallbacks": sum(attrs("solver.factor", "fallbacks")),
        "solver.solve_s": total("solver.solve"),
        "solver.solve_calls": len(by_name.get("solver.solve", [])),
        "solver.krylov_iterations": sum(attrs("solver.solve", "iterations")),
        "solver.residual_rel_max": max(attrs("solver.solve", "residual_rel"), default=0.0),
        "solver.extract_s": total("solver.extract"),
        "sde.simulate_s": simulate_s,
        "sde.step_s": float(sum(own[s["id"]] for s in by_name.get("sde.simulate", []))),
        "sde.path_steps_per_s": (
            sum(attrs("sde.simulate", "path_steps")) / simulate_s if simulate_s > 0 else 0.0
        ),
        "sde.crossing_observer_s": total("sde.crossing_observer"),
        "sde.band_observer_s": total("sde.band_observer"),
        "convergence.sup_diff_s": total("convergence.sup_diff"),
        "experiments.self_s": sum(own[s["id"]] for s in by_name.get(EXPERIMENT_SPAN, [])),
        "config.parse_s": total("config.parse"),
    }
    installed = set(installed) | {EXPERIMENT_SPAN}
    return {
        name: (values[name], unit)
        for name, (unit, needs) in LAYER_METRICS.items()
        if all(n in installed for n in needs)
    }


def residual_violations(spans) -> list[str]:
    """Solves whose recomputed relative residual exceeds the solver's rel_tol."""
    out = []
    for s in spans:
        a = s["attrs"]
        if s["name"] == "solver.solve" and "residual_rel" in a:
            if not a["residual_rel"] <= a["rel_tol"]:
                out.append(
                    f"solve {s['id']}: residual {a['residual_rel']:.3g} > rel_tol {a['rel_tol']:.3g}"
                )
    return out


def coverage_gap(spans, wall_s: float) -> float:
    """Traced wall time minus the self times of the experiment's span tree."""
    roots = [s for s in spans if s["name"] == EXPERIMENT_SPAN]
    if not roots:
        return wall_s
    own = self_times(spans)
    tree = [s for r in roots for s in descendants(spans, r["id"])]
    return wall_s - sum(own[s["id"]] for s in tree)


def median_metrics(per_round: list[dict]) -> dict[str, tuple[float, str]]:
    """Median of each metric over rounds (counts repeat, so they pass through)."""
    out = {}
    for name in per_round[0]:
        values = [m[name][0] for m in per_round if name in m]
        out[name] = (statistics.median(values), per_round[0][name][1])
    return out
