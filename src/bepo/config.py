"""Run configuration: a flat `section.key = value` text document.

The empty document resolves to the built-in reference defaults (k=1, alpha=0.5,
b=1, sigma=1, f=-y, x_bar=y_bar=3.5, lambda=1e-3) at desk-scale grid and
Monte Carlo sizes. Unknown keys are errors, not warnings, so a serialized
manifest always captures the full input.
"""

from __future__ import annotations

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


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Parse a config document into a RunConfig with all defaults filled.

    `experiment`, when given, replaces the document's `experiment` key (the
    CLI passes its positional argument), so the checks that depend on the
    experiment see the one that will run.

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

    def take(key, default):
        return values.get(key, default)

    try:
        force = ForceSpec(
            c0=take("force.c0", 1.0),
            c1=take("force.c1", 0.0),
            const=take("force.const", 0.0),
        )
        model = ModelParams(
            k=take("model.k", 1.0),
            alpha=take("model.alpha", 0.5),
            b=take("model.b", 1.0),
            sigma=take("model.sigma", 1.0),
            force=force,
        )
        grid = GridSpec(
            x_bar=take("grid.x_bar", 3.5),
            y_bar=take("grid.y_bar", 3.5),
            b=model.b,
            lam=take("grid.lambda", 1e-3),
            I=take("grid.I", 33),
            J=take("grid.J", 33),
            K=take("grid.K", 33),
        )
        solver = SolverConfig(
            rel_tol=take("solver.rel_tol", 1e-10),
            max_iters=take("solver.max_iters", 200),
            restart=take("solver.restart", 60),
            drop_tol=take("solver.drop_tol", 1e-2),
            fill_factor=take("solver.fill_factor", 10.0),
            polish_factor=take("solver.polish_factor", 1.0),
        )
        init = OscState(
            x=take("sim.init_x", 0.0),
            y=take("sim.init_y", 0.0),
            z=take("sim.init_z", 0.0),
        )
        sim = SimConfig(
            dt=take("sim.dt", 1e-3),
            n_steps=take("sim.n_steps", 100_000),
            burn_in=values.get("sim.burn_in"),
            seed=take("sim.seed", 0),
            n_paths=take("sim.n_paths", 1),
            init=init,
        )
    except ParseError:
        raise
    except (ValueError, BepoError) as exc:  # dataclass validators
        raise ValidationError(str(exc)) from exc

    if experiment is None:
        experiment = take("experiment", "solve")
    if experiment not in EXPERIMENTS:
        raise ValidationError(
            f"experiment must be one of {EXPERIMENTS}, got {experiment!r}"
        )
    sweep = take("sweep.values", ())
    if experiment in ("crossing-sweep", "serviceability-sweep") and not sweep:
        raise ValidationError(f"{experiment} needs a nonempty sweep.values")
    if experiment == "serviceability-sweep" and not all(v >= 0 for v in sweep):
        raise ValidationError("serviceability-sweep needs sweep.values >= 0")
    observable = take("observable.kind", "crossing")
    if observable not in ("crossing", "band", "constant"):
        raise ValidationError(f"unknown observable.kind {observable!r}")
    if "observable.a2" in values and values["observable.a2"] < 0:
        raise ValidationError("observable.a2 must be >= 0")
    if "observable.eps0" in values and values["observable.eps0"] <= 0:
        raise ValidationError("observable.eps0 must be > 0")

    return RunConfig(
        model=model,
        grid=grid,
        solver=solver,
        sim=sim,
        experiment=experiment,
        sweep=sweep,
        observable=observable,
        a1=take("observable.a1", 0.0),
        eps0=values.get("observable.eps0"),
        a2=take("observable.a2", 1.0),
        g_const=take("observable.c", 1.0),
        mc_enabled=take("mc.enabled", True),
        n_refinements=take("convergence.n_refinements", 3),
        interior_only=take("convergence.interior_only", False),
        record_stride=take("output.record_stride", 0),
    )


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
