"""Run configuration: a flat `section.key = value` text document.

The empty document resolves to the built-in reference defaults (k=1, alpha=0.5,
b=1, sigma=1, f=-y, x_bar=y_bar=3.5, lambda=1e-3) at desk-scale grid and
Monte Carlo sizes. Unknown keys are errors, not warnings, so a serialized
manifest always captures the full input.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import BepoError, ParseError, ValidationError
from .grid import GridSpec
from .model import ForceSpec, ModelParams
from .sde import OscState, SimConfig
from .solver import SolverConfig

__all__ = ["RunConfig", "parse_config", "serialize_config"]

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
        if abs(self.sim.init.z) > self.model.b:
            raise ValueError(
                f"sim.init_z = {self.sim.init.z} lies outside [-b, b], "
                f"model.b = {self.model.b}"
            )
        if self.experiment == "simulate" and self.sim.n_paths != 1:
            raise ValueError(f"simulate runs one path, got sim.n_paths = {self.sim.n_paths}")
        # a crossing rate divides by the time between the first and the last
        # observed sample, as crossing_frequency_mc does
        observed = self.sim.n_steps - self.sim.effective_burn_in
        counts_crossings = self.experiment in ("cross-validate", "crossing-sweep")
        if counts_crossings and self.mc_enabled and observed < 2:
            raise ValueError(
                f"{self.experiment} counts Monte Carlo crossings over "
                f"sim.n_steps - burn_in = {observed} observed samples; a "
                "crossing rate needs at least 2"
            )

    def resolved_eps0(self) -> float:
        return self.grid.x_bar / 64.0 if self.eps0 is None else self.eps0


# key -> (block, field, value type): the flat schema of the document, in the
# order serialize_config writes it. Block "" is RunConfig itself and "init"
# is sim.init. The last three keys are written only when set.
_SCHEMA = {
    "model.k":                   ("model", "k", float),
    "model.alpha":               ("model", "alpha", float),
    "model.b":                   ("model", "b", float),
    "model.sigma":               ("model", "sigma", float),
    "force.c0":                  ("force", "c0", float),
    "force.c1":                  ("force", "c1", float),
    "force.const":               ("force", "const", float),
    "grid.x_bar":                ("grid", "x_bar", float),
    "grid.y_bar":                ("grid", "y_bar", float),
    "grid.lambda":               ("grid", "lam", float),
    "grid.I":                    ("grid", "I", int),
    "grid.J":                    ("grid", "J", int),
    "grid.K":                    ("grid", "K", int),
    "solver.rel_tol":            ("solver", "rel_tol", float),
    "solver.max_iters":          ("solver", "max_iters", int),
    "solver.restart":            ("solver", "restart", int),
    "solver.polish_factor":      ("solver", "polish_factor", float),
    "sim.dt":                    ("sim", "dt", float),
    "sim.n_steps":               ("sim", "n_steps", int),
    "sim.seed":                  ("sim", "seed", int),
    "sim.n_paths":               ("sim", "n_paths", int),
    "sim.init_x":                ("init", "x", float),
    "sim.init_y":                ("init", "y", float),
    "sim.init_z":                ("init", "z", float),
    "experiment":                ("", "experiment", str),
    "observable.kind":           ("", "observable", str),
    "observable.a1":             ("", "a1", float),
    "observable.a2":             ("", "a2", float),
    "observable.c":              ("", "g_const", float),
    "mc.enabled":                ("", "mc_enabled", bool),
    "convergence.n_refinements": ("", "n_refinements", int),
    "convergence.interior_only": ("", "interior_only", bool),
    "output.record_stride":      ("", "record_stride", int),
    "sim.burn_in":               ("sim", "burn_in", int),
    "observable.eps0":           ("", "eps0", float),
    "sweep.values":              ("", "sweep", "floatlist"),
}


def _parse_value(key: str, raw: str, lineno: int):
    kind = _SCHEMA[key][2]
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


def _format_value(key: str, value) -> str:
    kind = _SCHEMA[key][2]
    if kind is float:
        return repr(value)
    if kind is bool:
        return str(value).lower()
    if kind == "floatlist":
        return ", ".join(repr(v) for v in value)
    return f"{value}"


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
    # block -> {field: value}; absent fields keep the dataclass defaults
    fields = defaultdict(dict)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        block, name, _ = _SCHEMA[key]
        if name in fields[block]:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        fields[block][name] = _parse_value(key, raw, lineno)

    if experiment is not None:
        fields[""]["experiment"] = experiment
    if seed is not None:
        fields["sim"]["seed"] = seed
    try:
        model = ModelParams(force=ForceSpec(**fields["force"]), **fields["model"])
        init = OscState(**(dict.fromkeys("xyz", 0.0) | fields["init"]))
        return RunConfig(
            model=model,
            grid=GridSpec(b=model.b, **fields["grid"]),
            solver=SolverConfig(**fields["solver"]),
            sim=SimConfig(init=init, **fields["sim"]),
            **fields[""],
        )
    except (ValueError, BepoError) as exc:  # dataclass validators
        raise ValidationError(str(exc)) from exc


def serialize_config(cfg: RunConfig) -> str:
    """Emit the full resolved document; parse(serialize(c)) == c."""
    blocks = {
        "": cfg,
        "model": cfg.model,
        "force": cfg.model.force,
        "grid": cfg.grid,
        "solver": cfg.solver,
        "sim": cfg.sim,
        "init": cfg.sim.init,
    }
    lines = []
    for key, (block, name, kind) in _SCHEMA.items():
        value = getattr(blocks[block], name)
        if value is None or (kind == "floatlist" and not value):
            continue  # an unset optional key
        lines.append(f"{key} = {_format_value(key, value)}")
    return "\n".join(lines) + "\n"
