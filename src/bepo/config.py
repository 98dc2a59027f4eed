"""Run configuration: a flat `section.key = value` text document.

The empty document resolves to the built-in reference defaults (k=1, alpha=0.5,
b=1, sigma=1, f=-y, x_bar=y_bar=3.5, lambda=1e-3) at desk-scale grid and
Monte Carlo sizes. Unknown keys are errors, not warnings, so a serialized
manifest always captures the full input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BepoError, ParseError, ValidationError
from .grid import GridSpec
from .model import ForceSpec, ModelParams
from .sde import OscState, SimConfig
from .solver import SolverConfig

__all__ = ["RunConfig", "parse_config", "serialize_config", "DEFAULTS"]

EXPERIMENTS = (
    "solve",
    "simulate",
    "crossing-sweep",
    "serviceability-sweep",
    "convergence",
    "cross-validate",
)


@dataclass
class RunConfig:
    """All blocks an experiment may consume, defaults materialized."""

    model: ModelParams = field(default_factory=ModelParams)
    grid: GridSpec = field(default_factory=GridSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    experiment: str = "solve"
    sweep: tuple[float, ...] = ()
    observable: str = "crossing"  # crossing | band | constant
    a1: float = 0.0
    eps0: float | None = None  # default: x_bar / 64 (unscaled width)
    a2: float = 1.0
    g_const: float = 1.0
    mc_enabled: bool = True
    n_refinements: int = 3
    interior_only: bool = False
    record_stride: int = 0  # 0: no trajectory dump

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        sweeps = ("crossing-sweep", "serviceability-sweep")
        if self.experiment in sweeps and not self.sweep:
            raise ValueError(f"{self.experiment} needs a nonempty sweep.values")
        if self.experiment == "serviceability-sweep" and not all(
            v >= 0 for v in self.sweep
        ):
            raise ValueError("serviceability-sweep needs sweep.values >= 0")
        if self.observable not in ("crossing", "band", "constant"):
            raise ValueError(f"unknown observable.kind {self.observable!r}")
        if not self.a2 >= 0:
            raise ValueError(f"observable.a2 must be >= 0, got {self.a2}")
        if self.eps0 is not None and not 0 < self.eps0 < math.inf:
            raise ValueError(f"observable.eps0 must be finite and > 0, got {self.eps0}")
        named = [("observable.a1", self.a1), ("observable.c", self.g_const)]
        for key, value in named + [("sweep.values", v) for v in self.sweep]:
            if not math.isfinite(value):
                raise ValueError(f"{key} holds a non-finite value, {value}")
        if self.n_refinements < 0:
            raise ValueError(
                f"convergence.n_refinements must be >= 0, got {self.n_refinements}"
            )
        if self.record_stride < 0:
            raise ValueError(f"output.record_stride must be >= 0, got {self.record_stride}")
        # a crossing rate divides by the time between the first and the last
        # observed sample, as crossing_frequency_mc does
        observed = self.sim.n_steps - self.sim.effective_burn_in
        counts_crossings = self.experiment == "cross-validate" or (
            self.experiment == "crossing-sweep" and self.mc_enabled
        )
        if counts_crossings and observed < 2:
            raise ValueError(
                f"{self.experiment} counts Monte Carlo crossings over "
                f"sim.n_steps - burn_in = {observed} observed samples; a "
                "crossing rate needs at least 2"
            )

    def resolved_eps0(self) -> float:
        return self.grid.x_bar / 64.0 if self.eps0 is None else self.eps0


# key -> (section, attr, type); the flat schema of the document
_SCHEMA = {
    "model.k": float,
    "model.alpha": float,
    "model.b": float,
    "model.sigma": float,
    "force.c0": float,
    "force.c1": float,
    "force.const": float,
    "grid.x_bar": float,
    "grid.y_bar": float,
    "grid.lambda": float,
    "grid.I": int,
    "grid.J": int,
    "grid.K": int,
    "solver.rel_tol": float,
    "solver.max_iters": int,
    "solver.restart": int,
    "solver.drop_tol": float,
    "solver.fill_factor": float,
    "solver.polish_factor": float,
    "sim.dt": float,
    "sim.n_steps": int,
    "sim.burn_in": int,
    "sim.seed": int,
    "sim.n_paths": int,
    "sim.init_x": float,
    "sim.init_y": float,
    "sim.init_z": float,
    "experiment": str,
    "sweep.values": "floatlist",
    "observable.kind": str,
    "observable.a1": float,
    "observable.eps0": float,
    "observable.a2": float,
    "observable.c": float,
    "mc.enabled": bool,
    "convergence.n_refinements": int,
    "convergence.interior_only": bool,
    "output.record_stride": int,
}

# document keys of RunConfig's own fields -> field name
_RUN_FIELDS = {
    "experiment": "experiment",
    "sweep.values": "sweep",
    "observable.kind": "observable",
    "observable.a1": "a1",
    "observable.eps0": "eps0",
    "observable.a2": "a2",
    "observable.c": "g_const",
    "mc.enabled": "mc_enabled",
    "convergence.n_refinements": "n_refinements",
    "convergence.interior_only": "interior_only",
    "output.record_stride": "record_stride",
}


def _parse_value(key: str, raw: str, lineno: int):
    kind = _SCHEMA[key]
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "floatlist":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return raw.strip()
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad value for {key}: {raw!r}") from exc


def parse_config(
    text: str, experiment: str | None = None, seed: int | None = None
) -> RunConfig:
    """Parse a config document into a RunConfig with all defaults filled.

    `experiment` and `seed`, when given, replace the document's `experiment`
    and `sim.seed` keys (the CLI passes its positional argument and
    `--seed`), so the checks see the values that will run.

    Raises ParseError with the offending line for syntax problems and
    ValidationError citing the violated invariant for bad values.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno)

    def section(name):
        """The section's keys by field name; absent ones keep the field defaults."""
        prefix = name + "."
        return {k[len(prefix):]: v for k, v in values.items() if k.startswith(prefix)}

    run_fields = {f: values[k] for k, f in _RUN_FIELDS.items() if k in values}
    if experiment is not None:
        run_fields["experiment"] = experiment
    try:
        model = ModelParams(force=ForceSpec(**section("force")), **section("model"))
        grid_keys = section("grid")
        if "lambda" in grid_keys:
            grid_keys["lam"] = grid_keys.pop("lambda")
        sim_keys = section("sim")
        if seed is not None:
            sim_keys["seed"] = seed
        init = OscState(
            **{axis: sim_keys.pop("init_" + axis, 0.0) for axis in ("x", "y", "z")}
        )
        return RunConfig(
            model=model,
            grid=GridSpec(b=model.b, **grid_keys),
            solver=SolverConfig(**section("solver")),
            sim=SimConfig(init=init, **sim_keys),
            **run_fields,
        )
    except (ValueError, BepoError) as exc:  # dataclass validators
        raise ValidationError(str(exc)) from exc


def serialize_config(cfg: RunConfig) -> str:
    """Emit the full resolved document; parse(serialize(c)) == c."""
    lines = [
        f"model.k = {cfg.model.k!r}",
        f"model.alpha = {cfg.model.alpha!r}",
        f"model.b = {cfg.model.b!r}",
        f"model.sigma = {cfg.model.sigma!r}",
        f"force.c0 = {cfg.model.force.c0!r}",
        f"force.c1 = {cfg.model.force.c1!r}",
        f"force.const = {cfg.model.force.const!r}",
        f"grid.x_bar = {cfg.grid.x_bar!r}",
        f"grid.y_bar = {cfg.grid.y_bar!r}",
        f"grid.lambda = {cfg.grid.lam!r}",
        f"grid.I = {cfg.grid.I}",
        f"grid.J = {cfg.grid.J}",
        f"grid.K = {cfg.grid.K}",
        f"solver.rel_tol = {cfg.solver.rel_tol!r}",
        f"solver.max_iters = {cfg.solver.max_iters}",
        f"solver.restart = {cfg.solver.restart}",
        f"solver.drop_tol = {cfg.solver.drop_tol!r}",
        f"solver.fill_factor = {cfg.solver.fill_factor!r}",
        f"solver.polish_factor = {cfg.solver.polish_factor!r}",
        f"sim.dt = {cfg.sim.dt!r}",
        f"sim.n_steps = {cfg.sim.n_steps}",
        f"sim.seed = {cfg.sim.seed}",
        f"sim.n_paths = {cfg.sim.n_paths}",
        f"sim.init_x = {cfg.sim.init.x!r}",
        f"sim.init_y = {cfg.sim.init.y!r}",
        f"sim.init_z = {cfg.sim.init.z!r}",
        f"experiment = {cfg.experiment}",
        f"observable.kind = {cfg.observable}",
        f"observable.a1 = {cfg.a1!r}",
        f"observable.a2 = {cfg.a2!r}",
        f"observable.c = {cfg.g_const!r}",
        f"mc.enabled = {str(cfg.mc_enabled).lower()}",
        f"convergence.n_refinements = {cfg.n_refinements}",
        f"convergence.interior_only = {str(cfg.interior_only).lower()}",
        f"output.record_stride = {cfg.record_stride}",
    ]
    if cfg.sim.burn_in is not None:
        lines.append(f"sim.burn_in = {cfg.sim.burn_in}")
    if cfg.eps0 is not None:
        lines.append(f"observable.eps0 = {cfg.eps0!r}")
    if cfg.sweep:
        lines.append("sweep.values = " + ", ".join(repr(v) for v in cfg.sweep))
    return "\n".join(lines) + "\n"


DEFAULTS = RunConfig()
