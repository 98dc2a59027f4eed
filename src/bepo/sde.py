"""Monte Carlo route: Euler-Maruyama integration of the oscillator with the
elastic deformation projected onto [-b, b], phase-event logging, and ergodic
estimators.

The variational-inequality constraint is realized discretely as a clamp on
the elastic deformation, with the drift evaluated at the old state:

    x' = x + y*dt
    y' = y + beta(x, y, z)*dt + sigma*dW
    z' = clamp(z + y*dt, -b, b)

so z sits exactly on +/-b in the plastic phases and the phase is recovered
by machine-exact comparison against the clamp output.

Paths are vectorized: the engine advances all paths in lock-step, drawing
each path's noise from its own generator keyed by (seed, path index), so
results do not depend on block size, on the number of paths or on worker
count. Noise is drawn a block at a time, path-major (one contiguous
standard_normal call per path into a reused (n_paths, block) buffer). Each
step runs on preallocated arrays with `out=` ufuncs in the operation order
of drift_beta and step_euler, so every sample is bit-identical to the
scalar step_euler, which stays as the oracle.

Observers consume blocks of states shaped (steps, n_paths) after burn-in.
The blocks are views of buffers that the next block overwrites, so an
observer copies whatever it keeps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateInput, NegativeBand, NonFiniteState
from .model import LyapunovReport, ModelParams, drift_beta, lyapunov_value

__all__ = [
    "Phase",
    "OscState",
    "SimConfig",
    "PhaseEvent",
    "TrajectoryStats",
    "BoundReport",
    "step_euler",
    "simulate_paths",
    "simulate_trajectory",
    "crossing_frequency_mc",
    "serviceability_mc",
    "ergodic_average_mc",
    "lyapunov_check_mc",
    "CrossingObserver",
    "BandObserver",
    "MeanObserver",
    "SampleRecorder",
]


class Phase(Enum):
    ELASTIC = "elastic"
    PLASTIC_PLUS = "plastic+"
    PLASTIC_MINUS = "plastic-"


def _phase_of(z: float, b: float) -> Phase:
    if z == b:
        return Phase.PLASTIC_PLUS
    if z == -b:
        return Phase.PLASTIC_MINUS
    return Phase.ELASTIC


@dataclass(frozen=True)
class OscState:
    """One sample of (x, y, z) with its phase flag; |z| <= b always and the
    plastic deformation is x - z."""

    x: float
    y: float
    z: float
    phase: Phase = Phase.ELASTIC


@dataclass(frozen=True)
class SimConfig:
    """Time step, horizon, and stream seeding for the engine."""

    dt: float = 1e-3
    n_steps: int = 100_000
    burn_in: int | None = None  # default: 1% of n_steps
    seed: int = 0
    n_paths: int = 1
    init: OscState = field(default_factory=lambda: OscState(0.0, 0.0, 0.0))

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        init = self.init
        if not all(math.isfinite(v) for v in (init.x, init.y, init.z)):
            raise ValueError(f"init must be finite, got {init}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.effective_burn_in >= self.n_steps:
            raise ValueError("burn_in must be smaller than n_steps")

    @property
    def effective_burn_in(self) -> int:
        return self.n_steps // 100 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class PhaseEvent:
    """Entry into or exit from a plastic regime at one of the bounds."""

    kind: str  # "entry" | "exit"
    time: float
    side: float  # +b or -b


@dataclass
class TrajectoryStats:
    """Summary of one simulate_trajectory run."""

    final: OscState
    n_observed: int
    events: list[PhaseEvent]
    outside_box_fraction: float | None = None


def step_euler(s: OscState, dt: float, dW: float, p: ModelParams) -> OscState:
    """One explicit Euler-Maruyama step; dW is the Brownian increment."""
    beta = drift_beta(s.x, s.y, s.z, p)
    ydt = s.y * dt
    x = s.x + ydt
    y = s.y + beta * dt + p.sigma * dW
    z = min(max(s.z + ydt, -p.b), p.b)
    return OscState(x=x, y=y, z=z, phase=_phase_of(z, p.b))


def _path_generators(seed: int, n_paths: int) -> list[np.random.Generator]:
    # one child stream per path keyed by (seed, path index): batching and
    # worker count cannot change any path's noise sequence
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        for i in range(n_paths)
    ]


def simulate_paths(cfg: SimConfig, p: ModelParams, observers=(), block: int = 1024):
    """Advance all paths, streaming post-burn-in state blocks to observers.

    Each observer is called as observer.update(t0, xs, ys, zs) with arrays
    of shape (steps_in_block, n_paths), where t0 is the time of the block's
    first row. The arrays are views of buffers that the next block
    overwrites: an observer must copy whatever it keeps. Raises
    NonFiniteState if any component leaves the finite range. Returns the
    final (x, y, z) arrays.

    Path i is bit-identical to iterating step_euler with the increments
    sqrt(dt) * standard_normal of its own (seed, i) stream, whatever the
    block size and the number of paths. Per block, the noise is drawn
    path-major into one reused buffer, scaled in place by sqrt(dt) and then
    by sigma, and transposed once into the y rows; each step then runs the
    operations of drift_beta and step_euler in their order, with `out=`
    ufuncs writing straight into the block's rows.
    """
    rngs = _path_generators(cfg.seed, cfg.n_paths)
    npth = cfg.n_paths
    dt = cfg.dt
    sqdt = np.sqrt(dt)
    burn = cfg.effective_burn_in
    rows = min(block, cfg.n_steps)
    noise = np.empty((npth, rows))
    xs = np.empty((rows, npth))
    ys = np.empty((rows, npth))
    zs = np.empty((rows, npth))
    row_views = list(zip(xs, ys, zs))
    x = np.full(npth, float(cfg.init.x))
    y = np.full(npth, float(cfg.init.y))
    z = np.full(npth, float(cfg.init.z))
    beta = np.empty(npth)
    tmp = np.empty(npth)

    # constants as arrays: an array-array ufunc call is cheaper than one
    # that converts a Python scalar, and the values are the same doubles
    def const(v):
        return np.full(npth, v)

    f = p.force
    neg_c0, c1, c = const(-f.c0), const(f.c1), const(f.const)
    k_z, k_x = const(p.k * (1.0 - p.alpha)), const(p.k * p.alpha)
    dt_c, lo, hi = const(dt), const(-p.b), const(p.b)
    # positional `out` on local names: the loop below is call overhead
    mul, add, sub = np.multiply, np.add, np.subtract

    done = 0
    while done < cfg.n_steps:
        nb = min(rows, cfg.n_steps - done)
        for ip, rng in enumerate(rngs):
            rng.standard_normal(out=noise[ip, :nb])
        dW = noise[:, :nb]
        dW *= sqdt
        dW *= p.sigma
        # row t of ys holds sigma*dW of step t until the step overwrites it
        ys[:nb] = dW.T
        xp, yp, zp = x, y, z
        with np.errstate(invalid="ignore", over="ignore"):
            # non-finite states are detected below; let them propagate quietly
            for xr, yr, zr in row_views[:nb]:
                mul(neg_c0, yp, beta)  # beta = f(x, y) - k(1-alpha)z - k alpha x
                mul(c1, xp, tmp)
                add(beta, tmp, beta)
                add(beta, c, beta)
                mul(k_z, zp, tmp)
                sub(beta, tmp, beta)
                mul(k_x, xp, tmp)
                sub(beta, tmp, beta)
                mul(yp, dt_c, tmp)  # y*dt
                add(xp, tmp, xr)
                add(zp, tmp, zr)
                np.maximum(zr, lo, out=zr)
                np.minimum(zr, hi, out=zr)
                mul(beta, dt_c, beta)
                add(yp, beta, beta)
                add(beta, yr, yr)  # (y + beta*dt) + sigma*dW
                xp, yp, zp = xr, yr, zr
        x[:], y[:], z[:] = xp, yp, zp
        done += nb
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise NonFiniteState(f"non-finite state within the first {done} steps")
        lo_row = max(0, burn - (done - nb))
        if lo_row < nb:
            t0 = (done - nb + lo_row + 1) * dt
            for obs in observers:
                obs.update(t0, xs[lo_row:nb], ys[lo_row:nb], zs[lo_row:nb])
    return x, y, z


class PhaseEventObserver:
    """Detects plastic entries and exits from the streamed z blocks.

    A jump straight from one bound to the other emits the exit before the
    entry. Single-path only.
    """

    def __init__(self, b: float, dt: float):
        self.b = b
        self.dt = dt
        self.events: list[PhaseEvent] = []
        self._prev = 0  # phase code of the last seen sample: -1, 0, +1

    def _code(self, z):
        return np.where(z == self.b, 1, np.where(z == -self.b, -1, 0))

    def update(self, t0, xs, ys, zs):
        codes = self._code(zs[:, 0])
        prev = self._prev
        changed = np.nonzero(np.diff(np.concatenate(([prev], codes))))[0]
        for t in changed:
            c_old = prev if t == 0 else codes[t - 1]
            c_new = codes[t]
            when = t0 + t * self.dt
            if c_old != 0:
                self.events.append(PhaseEvent("exit", when, c_old * self.b))
            if c_new != 0:
                self.events.append(PhaseEvent("entry", when, c_new * self.b))
        self._prev = int(codes[-1])


class _BoxObserver:
    """Fraction of observed samples outside [-x_bar,x_bar] x [-y_bar,y_bar]."""

    def __init__(self, x_bar, y_bar):
        self.x_bar, self.y_bar = x_bar, y_bar
        self.outside = 0
        self.total = 0

    def update(self, t0, xs, ys, zs):
        self.outside += int(
            ((np.abs(xs) > self.x_bar) | (np.abs(ys) > self.y_bar)).sum()
        )
        self.total += xs.size

    @property
    def fraction(self):
        return self.outside / self.total if self.total else 0.0


class SampleRecorder:
    """Stores every observed state; for tests and trajectory dumps only."""

    def __init__(self):
        self._chunks = []
        self._t0s = []

    def update(self, t0, xs, ys, zs):
        self._t0s.append(t0)
        self._chunks.append((xs.copy(), ys.copy(), zs.copy()))

    def arrays(self):
        xs = np.concatenate([c[0] for c in self._chunks])
        ys = np.concatenate([c[1] for c in self._chunks])
        zs = np.concatenate([c[2] for c in self._chunks])
        return xs, ys, zs

    def times(self, dt):
        ts = []
        for t0, (xs, _, _) in zip(self._t0s, self._chunks):
            ts.append(t0 + dt * np.arange(xs.shape[0]))
        return np.concatenate(ts)


def simulate_trajectory(
    cfg: SimConfig, p: ModelParams, observers=(), box=None
) -> TrajectoryStats:
    """Single-trajectory run with phase-event logging.

    Identical seed implies a bit-identical trajectory. `box = (x_bar, y_bar)`
    additionally reports the fraction of observed samples outside the
    truncation box (a diagnostic for the PDE route's domain choice).
    """
    if cfg.n_paths != 1:
        cfg = dataclasses.replace(cfg, n_paths=1)
    phase_obs = PhaseEventObserver(p.b, cfg.dt)
    obs = list(observers) + [phase_obs]
    box_obs = None
    if box is not None:
        box_obs = _BoxObserver(*box)
        obs.append(box_obs)
    x, y, z = simulate_paths(cfg, p, obs)
    zf = float(z[0])
    final = OscState(float(x[0]), float(y[0]), zf, _phase_of(zf, p.b))
    return TrajectoryStats(
        final=final,
        n_observed=cfg.n_steps - cfg.effective_burn_in,
        events=phase_obs.events,
        outside_box_fraction=None if box_obs is None else box_obs.fraction,
    )


# --- estimators on explicit sample arrays ------------------------------------


def _filled_signs(deviation: np.ndarray) -> np.ndarray:
    """Signs of the deviation with zeros adopting the previous nonzero sign.

    Samples before the first nonzero deviation keep sign 0 (position 0 of
    the fill index then points at sample 0, whose sign is 0).
    """
    s = np.sign(deviation)
    idx = np.where(s != 0, np.arange(len(s)), 0)
    np.maximum.accumulate(idx, out=idx)
    return s[idx]


def crossing_frequency_mc(x_samples, dt: float, a1: float) -> float:
    """Level crossings of a1 per unit time along one sampled path.

    Counts sign changes of x - a1 between consecutive samples; a sample
    exactly on the level adopts the sign of the previous nonzero deviation,
    so touching the level is never double-counted. Up- and down-crossings
    are counted jointly. T = (N-1)*dt.
    """
    x_samples = np.asarray(x_samples, dtype=np.float64)
    if x_samples.ndim != 1 or len(x_samples) < 2:
        raise DegenerateInput("need at least 2 samples on one path")
    s = _filled_signs(x_samples - a1)
    crossings = int(np.count_nonzero((s[1:] != s[:-1]) & (s[1:] != 0)))
    return crossings / ((len(x_samples) - 1) * dt)


def serviceability_mc(x_samples, z_samples, a2: float) -> float:
    """Fraction of samples with |x - z| <= a2 (closed band)."""
    if a2 < 0:
        raise NegativeBand(f"a2 must be >= 0, got {a2}")
    x_samples = np.asarray(x_samples, dtype=np.float64)
    z_samples = np.asarray(z_samples, dtype=np.float64)
    if x_samples.size == 0:
        raise DegenerateInput("empty sample set")
    return float(np.mean(np.abs(x_samples - z_samples) <= a2))


def ergodic_average_mc(g, x_samples, y_samples, z_samples, n_batches: int = 50):
    """Time average of g along the samples with a batch-means standard error.

    Returns (value, se). Batches are contiguous and as equal as possible;
    a constant observable yields se = 0 exactly.
    """
    x_samples = np.asarray(x_samples, dtype=np.float64)
    if x_samples.size == 0:
        raise DegenerateInput("empty sample set")
    vals = np.asarray(g(x_samples, y_samples, z_samples), dtype=np.float64)
    value = float(vals.mean())
    n_batches = max(1, min(n_batches, len(vals)))
    if n_batches == 1:
        return value, 0.0
    means = np.array([float(chunk.mean()) for chunk in np.array_split(vals, n_batches)])
    se = float(means.std(ddof=1) / np.sqrt(n_batches))
    return value, se


def _pooled_stats(per_path: np.ndarray):
    """Mean and standard error across independent per-path estimates."""
    m = float(per_path.mean())
    if len(per_path) < 2:
        return m, 0.0
    return m, float(per_path.std(ddof=1) / np.sqrt(len(per_path)))


# --- streaming observers for the estimators ----------------------------------


def _batch_se(block_values, block_sizes, per_sample_scale):
    """Batch-means SE from per-block totals grouped into <= 50 batches."""
    blocks = np.asarray(block_values, dtype=np.float64)
    sizes = np.asarray(block_sizes, dtype=np.float64)
    nb = min(50, len(blocks))
    if nb < 2:
        return 0.0
    groups = np.array([c.sum() for c in np.array_split(blocks, nb)])
    group_sizes = np.array([c.sum() for c in np.array_split(sizes, nb)])
    rates = groups / (group_sizes * per_sample_scale)
    return float(rates.std(ddof=1) / np.sqrt(nb))


class CrossingObserver:
    """Per-path crossing counts of several levels, streamed in blocks.

    The first observed row initializes the sign carry without counting, so
    the totals match crossing_frequency_mc on the concatenated samples.
    """

    def __init__(self, levels, dt: float, n_paths: int):
        self.levels = list(levels)
        self.dt = dt
        self.counts = np.zeros((len(self.levels), n_paths), dtype=np.int64)
        self._carry = np.zeros((len(self.levels), n_paths), dtype=np.int8)
        self._started = False
        self.n_samples = 0
        self.block_counts = [[] for _ in self.levels]
        self.block_sizes = []
        # reused across blocks: deviations, and signs whose row 0 is the carry
        self._dev = np.empty((0, n_paths))
        self._signs = np.empty((1, n_paths), dtype=np.int8)

    def update(self, t0, xs, ys, zs):
        nb = xs.shape[0]
        self.n_samples += nb
        self.block_sizes.append(nb)
        if self._dev.shape[0] < nb:
            self._dev = np.empty(xs.shape)
            self._signs = np.empty((nb + 1, xs.shape[1]), dtype=np.int8)
        dev = self._dev[:nb]
        s = self._signs[: nb + 1]
        for li, a1 in enumerate(self.levels):
            np.subtract(xs, a1, out=dev)
            np.sign(dev, out=s[1:], casting="unsafe")
            # before the first row there is nothing to cross from
            s[0] = self._carry[li] if self._started else s[1]
            if not s[1:].all():
                # a sample exactly on the level adopts the previous sign
                for t in np.flatnonzero(~s[1:].all(axis=1)):
                    np.copyto(s[t + 1], s[t], where=s[t + 1] == 0)
            # after the fill a zero only follows a zero, so every change
            # of sign ends on a nonzero sign and is a crossing
            hits = np.count_nonzero(s[1:] != s[:-1], axis=0)
            self.counts[li] += hits
            self.block_counts[li].append(int(hits.sum()))
            self._carry[li] = s[nb]
        self._started = True

    def frequency(self, level_index: int):
        """(value, se): pooled crossings per unit time.

        Multi-path: per-path rates with a cross-path standard error.
        Single path: batch means over groups of consecutive blocks.
        """
        n_paths = self.counts.shape[1]
        T = (self.n_samples - 1) * self.dt
        if n_paths > 1:
            return _pooled_stats(self.counts[level_index] / T)
        value = float(self.counts[level_index].sum() / T)
        se = _batch_se(self.block_counts[level_index], self.block_sizes, self.dt)
        return value, se


class BandObserver:
    """Per-path counts of |x - z| <= a2 for several band radii."""

    def __init__(self, radii, n_paths: int):
        for a2 in radii:
            if a2 < 0:
                raise NegativeBand(f"a2 must be >= 0, got {a2}")
        self.radii = list(radii)
        self.counts = np.zeros((len(self.radii), n_paths), dtype=np.int64)
        self.n_samples = 0
        self.block_counts = [[] for _ in self.radii]
        self.block_sizes = []
        # reused across blocks: |x - z| and the in-band mask
        self._dist = np.empty((0, n_paths))
        self._inside = np.empty((0, n_paths), dtype=bool)

    def update(self, t0, xs, ys, zs):
        nb = xs.shape[0]
        self.n_samples += nb
        self.block_sizes.append(nb)
        if self._dist.shape[0] < nb:
            self._dist = np.empty(xs.shape)
            self._inside = np.empty(xs.shape, dtype=bool)
        d = self._dist[:nb]
        inside = self._inside[:nb]
        np.subtract(xs, zs, out=d)
        np.abs(d, out=d)
        for ri, a2 in enumerate(self.radii):
            np.less_equal(d, a2, out=inside)
            per_path = inside.sum(axis=0)
            self.counts[ri] += per_path
            self.block_counts[ri].append(int(per_path.sum()))

    def probability(self, radius_index: int):
        """(value, se) of the band probability; values sit in [0, 1] exactly
        and are nondecreasing in the radius on a fixed sample set."""
        n_paths = self.counts.shape[1]
        if n_paths > 1:
            return _pooled_stats(self.counts[radius_index] / self.n_samples)
        value = float(self.counts[radius_index].sum() / self.n_samples)
        se = _batch_se(self.block_counts[radius_index], self.block_sizes, 1.0)
        return value, se


class MeanObserver:
    """Streaming mean of g(x, y, z) over all observed samples."""

    def __init__(self, g):
        self.g = g
        self.total = 0.0
        self.count = 0

    def update(self, t0, xs, ys, zs):
        vals = np.asarray(self.g(xs, ys, zs), dtype=np.float64)
        self.total += float(vals.sum())
        self.count += vals.size

    @property
    def mean(self):
        if self.count == 0:
            raise DegenerateInput("no samples observed")
        return self.total / self.count


# --- energy-bound check -------------------------------------------------------


@dataclass
class BoundReport:
    """Cross-path energy means at checkpoint times against the bound."""

    times: list[float]
    means: list[float]
    ses: list[float]
    bound: float
    violations: list[bool]

    @property
    def violated(self) -> bool:
        return any(self.violations)


def lyapunov_check_mc(
    cfg: SimConfig,
    p: ModelParams,
    r: LyapunovReport,
    checkpoint_times,
    block: int = 256,
) -> BoundReport:
    """Check E[V(X(t), Y(t))] <= V(init) + C/C1 at the checkpoints.

    Uses a zero burn-in run (the bound covers the transient) and flags a
    checkpoint when mean - 3*se exceeds the bound. n_paths >= 100 is
    expected for the statistics to mean anything.
    """
    checkpoint_times = sorted(checkpoint_times)
    steps = [max(1, int(round(t / cfg.dt))) for t in checkpoint_times]
    n_steps = max(steps)
    run_cfg = dataclasses.replace(cfg, n_steps=n_steps, burn_in=0)

    target = set(steps)
    captured = {}

    class Checkpoints:
        def __init__(self):
            self.seen = 0

        def update(self, t0, xs, ys, zs):
            nb = xs.shape[0]
            for s in target:
                local = s - self.seen - 1
                if 0 <= local < nb:
                    captured[s] = (xs[local].copy(), ys[local].copy())
            self.seen += nb

    simulate_paths(run_cfg, p, [Checkpoints()], block=block)

    bound = lyapunov_value(cfg.init.x, cfg.init.y, r) + r.bound
    means, ses, flags = [], [], []
    for s in steps:
        xv, yv = captured[s]
        vals = lyapunov_value(xv, yv, r)
        m, se = _pooled_stats(vals)
        means.append(m)
        ses.append(se)
        flags.append(m - 3.0 * se > bound)
    return BoundReport(
        times=list(checkpoint_times), means=means, ses=ses, bound=bound,
        violations=flags,
    )
