"""Monte Carlo route: Euler-Maruyama integration of the oscillator with the
elastic deformation projected onto [-b, b], phase-event logging, and ergodic
estimators.

The variational-inequality constraint is realized discretely as a clamp on
the elastic deformation, with the drift evaluated at the old state:

    x' = x + y*dt
    y' = y + beta(x, y, z)*dt + sigma*dW
    z' = clamp(z + y*dt, -b, b)

so z sits exactly on +/-b in the plastic phases and the phase is recovered
by machine-exact comparison against the clamp output. beta is affine, so
the velocity update is computed as one affine map with coefficients fixed
once per run (`_step_coefficients`):

    y' = ((a*y + c*x) + d*z) + (sigma*dW + e)

with a = 1 - c0*dt, c = (c1 - k*alpha)*dt, d = -k*(1-alpha)*dt and
e = const*dt. It equals the form above up to rounding in the last bits.

Paths are vectorized: the engine advances all paths in lock-step, drawing
each path's noise from its own generator keyed by (seed, path index), so
results do not depend on block size, on the number of paths or on worker
count. The noise is drawn in one forked producer process while the paths
step: a block at a time, path-major (one contiguous standard_normal call
per path into a reused (n_paths, block) buffer), turned into sigma*dW + e
and written transposed into one of two shared slots, which are the
stepping process's y rows. Each step runs on preallocated arrays with
`out=` ufuncs in the association of step_euler, on the same coefficients,
so every sample is bit-identical to the scalar step_euler, which stays as
the oracle.

Observers consume blocks of states shaped (steps, n_paths) after burn-in.
The blocks are views of buffers that the next block overwrites, so an
observer copies whatever it keeps. Their standard errors are taken across
independent paths; a single path reports NaN.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import mmap
import signal
import struct
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BepoError, DegenerateInput, NegativeBand, NonFiniteState
from .model import LyapunovReport, ModelParams, lyapunov_value

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
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
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


def _step_coefficients(p: ModelParams, dt: float):
    """(a, c, d, e) of the velocity update y' = ((a*y + c*x) + d*z) + (sigma*dW + e):
    y + beta(x, y, z)*dt + sigma*dW with beta's affine terms multiplied
    out by dt."""
    f = p.force
    return (
        1.0 - f.c0 * dt,
        (f.c1 - p.k * p.alpha) * dt,
        -p.k * (1.0 - p.alpha) * dt,
        f.const * dt,
    )


def step_euler(s: OscState, dt: float, dW: float, p: ModelParams) -> OscState:
    """One explicit Euler-Maruyama step; dW is the Brownian increment.

    The velocity takes the affine form of `_step_coefficients`, associated
    as ((a*y + c*x) + d*z) + (sigma*dW + e); simulate_paths keeps that
    association, so its samples are bit-identical to iterating this step.
    """
    a, c, d, e = _step_coefficients(p, dt)
    ydt = s.y * dt
    x = s.x + ydt
    y = ((a * s.y + c * s.x) + d * s.z) + (p.sigma * dW + e)
    z = min(max(s.z + ydt, -p.b), p.b)
    return OscState(x=x, y=y, z=z, phase=_phase_of(z, p.b))


def _path_generators(seed: int, n_paths: int) -> list[np.random.Generator]:
    # one child stream per path keyed by (seed, path index): batching and
    # worker count cannot change any path's noise sequence
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        for i in range(n_paths)
    ]


def _produce(here, there, seed, ring, n_steps, sqdt, sigma, e):
    """The noise producer's loop, run in the forked child: block k's
    sigma*dW + e is drawn path-major into a private buffer, scaled in place
    and written transposed into ring slot k % 2 once the parent has handed
    that slot back. The child makes the per-path generators, so the parent
    never holds them. The last block's hand-over carries the CPU seconds
    spent drawing, scaling and writing, a packed double; the others are
    empty. Returns quietly when the parent is gone."""
    here.close()  # the parent's end: with it closed, a dead parent reads as EOF
    # Ctrl-C reaches the whole process group; the parent ends this process
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _, rows, npth = ring.shape
    rngs = _path_generators(seed, npth)
    noise = np.empty((npth, rows))
    draw_s = 0.0
    try:
        for k, first in enumerate(range(0, n_steps, rows)):
            nb = min(rows, n_steps - first)
            start = time.process_time()
            for ip, rng in enumerate(rngs):
                rng.standard_normal(out=noise[ip, :nb])
            dW = noise[:, :nb]
            dW *= sqdt
            dW *= sigma
            dW += e
            draw_s += time.process_time() - start
            if k >= 2:
                there.recv_bytes()  # the parent is done with block k - 2
            start = time.process_time()
            ring[k % 2, :nb] = dW.T
            draw_s += time.process_time() - start
            there.send_bytes(struct.pack("d", draw_s) if first + nb == n_steps else b"")
    except (EOFError, ConnectionError):
        pass


def simulate_paths(
    cfg: SimConfig, p: ModelParams, observers=(), block: int = 1024, stages=None
):
    """Advance all paths, streaming post-burn-in state blocks to observers.

    Each observer is called as observer.update(t0, xs, ys, zs) with arrays
    of shape (steps_in_block, n_paths), where t0 is the time of the block's
    first row. The arrays are views of buffers that the next block
    overwrites: an observer must copy whatever it keeps. Raises
    NonFiniteState if any component leaves the finite range. Returns the
    final (x, y, z) arrays. A dict given as `stages` gains `observe_s`, the
    seconds spent in the observers, `noise_wait_s`, the seconds spent
    waiting for the noise of a block, and `noise_draw_s`, the producer's own
    CPU seconds of drawing, scaling and writing the noise, which it sends
    with the last block. On one core the producer preempts this process
    rather than keep it waiting, so there only `noise_draw_s` shows what the
    noise costs.

    Path i is bit-identical to iterating step_euler with the increments
    sqrt(dt) * standard_normal of its own (seed, i) stream, whatever the
    block size and the number of paths. The noise comes from one forked
    producer process (`_produce`). It makes the per-path generators, draws
    block k path-major, turns it into (N*sqrt(dt))*sigma + e and writes it
    transposed into slot k % 2 of a two-slot ring in shared memory, while
    this process steps block k - 1. The ring slots are the y rows: each
    step is eleven `out=` ufunc calls on one-dimensional rows, in
    step_euler's association and on its coefficients
    (`_step_coefficients`), the velocity overwriting the noise in place.
    After the observers have run, the slot goes back to the producer. One
    `Pipe` carries the hand-overs both ways. The producer is killed and
    joined on every exit; if it dies first, the run raises BepoError
    instead of waiting. Raises DegenerateInput for a block below 1 and for
    an initial z outside [-b, b], before the producer starts.
    """
    if block < 1:
        raise DegenerateInput(f"block must be >= 1, got {block}")
    if abs(cfg.init.z) > p.b:
        raise DegenerateInput(f"initial z = {cfg.init.z} lies outside [-b, b] for b = {p.b}")
    npth = cfg.n_paths
    dt = cfg.dt
    burn = cfg.effective_burn_in
    rows = min(block, cfg.n_steps)
    ring = np.frombuffer(mmap.mmap(-1, 2 * rows * npth * 8)).reshape(2, rows, npth)
    xs = np.empty((rows, npth))
    zs = np.empty((rows, npth))
    x_rows, z_rows = list(xs), list(zs)
    y_rows = [list(ys) for ys in ring]
    x = np.full(npth, float(cfg.init.x))
    y = np.full(npth, float(cfg.init.y))
    z = np.full(npth, float(cfg.init.z))
    acc = np.empty(npth)
    tmp = np.empty(npth)

    # constants as arrays: an array-array ufunc call is cheaper than one
    # that converts a Python scalar, and the values are the same doubles
    def const(v):
        return np.full(npth, v)

    a, c, d, e = _step_coefficients(p, dt)
    a_y, c_x, d_z = const(a), const(c), const(d)
    dt_c, lo, hi = const(dt), const(-p.b), const(p.b)
    # positional `out` on local names: the loop below is call overhead
    mul, add = np.multiply, np.add

    # imported here, not with the package: runs without Monte Carlo would
    # pay about 0.25 MB of peak RSS for it
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()
    producer = ctx.Process(
        target=_produce,
        args=(here, there, cfg.seed, ring, cfg.n_steps, np.sqrt(dt), p.sigma, e),
        daemon=True,
    )
    producer.start()
    observe_s = wait_s = 0.0
    try:
        there.close()  # the child's end: with it closed, a dead child reads as EOF
        for k, first in enumerate(range(0, cfg.n_steps, rows)):
            nb = min(rows, cfg.n_steps - first)
            start = time.perf_counter()
            try:
                message = here.recv_bytes()  # slot k % 2 holds block k's noise
            except (EOFError, ConnectionError):  # a killed child can reset the socket
                raise BepoError(
                    f"the noise producer exited after {first} of {cfg.n_steps} steps"
                ) from None
            wait_s += time.perf_counter() - start
            xp, yp, zp = x, y, z
            with np.errstate(invalid="ignore", over="ignore"):
                # non-finite states are detected below; let them propagate quietly
                for xr, yr, zr in zip(x_rows[:nb], y_rows[k % 2][:nb], z_rows[:nb]):
                    mul(a_y, yp, acc)
                    mul(c_x, xp, tmp)
                    add(acc, tmp, acc)
                    mul(d_z, zp, tmp)
                    add(acc, tmp, acc)
                    add(acc, yr, yr)  # ((a*y + c*x) + d*z) + (sigma*dW + e)
                    mul(yp, dt_c, tmp)  # y*dt
                    add(xp, tmp, xr)
                    add(zp, tmp, zr)
                    np.maximum(zr, lo, out=zr)
                    np.minimum(zr, hi, out=zr)
                    xp, yp, zp = xr, yr, zr
            x[:], y[:], z[:] = xp, yp, zp
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise NonFiniteState(f"non-finite state within the first {first + nb} steps")
            lo_row = max(0, burn - first)
            if lo_row < nb:
                t0 = (first + lo_row + 1) * dt
                ys = ring[k % 2]
                start = time.perf_counter()
                for obs in observers:
                    obs.update(t0, xs[lo_row:nb], ys[lo_row:nb], zs[lo_row:nb])
                observe_s += time.perf_counter() - start
            if first + 2 * rows < cfg.n_steps:
                # hand the slot back for block k + 2; a dead producer shows
                # at the next receive
                with contextlib.suppress(ConnectionError):
                    here.send_bytes(b"")
    finally:
        here.close()
        producer.kill()
        producer.join()
        producer.close()
    if stages is not None:
        (draw_s,) = struct.unpack("d", message)
        stages.update(observe_s=observe_s, noise_wait_s=wait_s, noise_draw_s=draw_s)
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
    Raises DegenerateInput unless cfg.n_paths is 1.
    """
    if cfg.n_paths != 1:
        raise DegenerateInput(f"a trajectory run has one path, got n_paths = {cfg.n_paths}")
    phase_obs = PhaseEventObserver(p.b, cfg.dt)
    obs = list(observers) + [phase_obs]
    box_obs = None
    if box is not None:
        x_bar, y_bar = box
        box_obs = MeanObserver(
            lambda xs, ys, zs: (np.abs(xs) > x_bar) | (np.abs(ys) > y_bar)
        )
        obs.append(box_obs)
    x, y, z = simulate_paths(cfg, p, obs)
    zf = float(z[0])
    final = OscState(float(x[0]), float(y[0]), zf, _phase_of(zf, p.b))
    return TrajectoryStats(
        final=final,
        n_observed=cfg.n_steps - cfg.effective_burn_in,
        events=phase_obs.events,
        outside_box_fraction=None if box_obs is None else box_obs.mean,
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
    if math.isnan(a1):
        raise DegenerateInput("the crossing level is NaN")
    x_samples = np.asarray(x_samples, dtype=np.float64)
    if x_samples.ndim != 1 or len(x_samples) < 2:
        raise DegenerateInput("need at least 2 samples on one path")
    s = _filled_signs(x_samples - a1)
    crossings = int(np.count_nonzero((s[1:] != s[:-1]) & (s[1:] != 0)))
    return crossings / ((len(x_samples) - 1) * dt)


def serviceability_mc(x_samples, z_samples, a2: float) -> float:
    """Fraction of samples with |x - z| <= a2 (closed band)."""
    if not a2 >= 0:
        raise NegativeBand(f"a2 must be >= 0, got {a2}")
    x_samples = np.asarray(x_samples, dtype=np.float64)
    z_samples = np.asarray(z_samples, dtype=np.float64)
    if x_samples.size == 0:
        raise DegenerateInput("empty sample set")
    return float(np.mean(np.abs(x_samples - z_samples) <= a2))


def ergodic_average_mc(g, x_samples, y_samples, z_samples) -> float:
    """Time average of g along the samples. A test oracle only, with no
    standard error: errors are taken across paths, and one path has none."""
    x_samples = np.asarray(x_samples, dtype=np.float64)
    if x_samples.size == 0:
        raise DegenerateInput("empty sample set")
    vals = np.asarray(g(x_samples, y_samples, z_samples), dtype=np.float64)
    return float(vals.mean())


def _pooled_stats(per_path: np.ndarray):
    """Mean and standard error across per-path estimates (NaN for one path)."""
    m = float(per_path.mean())
    if len(per_path) < 2:
        return m, math.nan
    return m, float(per_path.std(ddof=1) / np.sqrt(len(per_path)))


# --- streaming observers for the estimators ----------------------------------


class CrossingObserver:
    """Per-path crossing counts of several levels, streamed in blocks.

    The first observed row initializes the sign carry without counting, so
    each path's count matches crossing_frequency_mc on that path's samples.
    """

    def __init__(self, levels, dt: float, n_paths: int):
        self.levels = list(levels)
        if any(math.isnan(a1) for a1 in self.levels):
            raise DegenerateInput(f"a crossing level is NaN: {self.levels}")
        self.dt = dt
        self.counts = np.zeros((len(self.levels), n_paths), dtype=np.int64)
        self._carry = np.zeros((len(self.levels), n_paths), dtype=np.int8)
        self.n_samples = 0
        # reused across blocks: the above/below masks, and signs whose row
        # 0 is the carry
        self._above = np.empty((0, n_paths), dtype=bool)
        self._below = np.empty((0, n_paths), dtype=bool)
        self._signs = np.empty((1, n_paths), dtype=np.int8)

    def update(self, t0, xs, ys, zs):
        nb = xs.shape[0]
        started = self.n_samples > 0
        self.n_samples += nb
        if self._above.shape[0] < nb:
            self._above = np.empty(xs.shape, dtype=bool)
            self._below = np.empty(xs.shape, dtype=bool)
            self._signs = np.empty((nb + 1, xs.shape[1]), dtype=np.int8)
        above = self._above[:nb]
        below = self._below[:nb]
        s = self._signs[: nb + 1]
        for li, a1 in enumerate(self.levels):
            # sign(x - a1) as (x > a1) - (x < a1), on the masks' int8 views
            np.greater(xs, a1, out=above)
            np.less(xs, a1, out=below)
            np.subtract(above.view(np.int8), below.view(np.int8), out=s[1:])
            # before the first row there is nothing to cross from
            s[0] = self._carry[li] if started else s[1]
            if not s[1:].all():
                # a sample exactly on the level adopts the previous sign
                for t in np.flatnonzero(~s[1:].all(axis=1)):
                    np.copyto(s[t + 1], s[t], where=s[t + 1] == 0)
            # after the fill a zero only follows a zero, so every change
            # of sign ends on a nonzero sign and is a crossing
            self.counts[li] += np.count_nonzero(s[1:] != s[:-1], axis=0)
            self._carry[li] = s[nb]

    def frequency(self, level_index: int):
        """(value, se): the mean of the per-path crossing rates and its
        standard error across paths (NaN for one path). Raises
        DegenerateInput before two rows are observed.
        """
        if self.n_samples < 2:
            raise DegenerateInput("need at least 2 observed samples per path")
        T = (self.n_samples - 1) * self.dt
        return _pooled_stats(self.counts[level_index] / T)


class BandObserver:
    """Per-path counts of |x - z| <= a2 for several band radii."""

    def __init__(self, radii, n_paths: int):
        for a2 in radii:
            if not a2 >= 0:
                raise NegativeBand(f"a2 must be >= 0, got {a2}")
        self.radii = list(radii)
        self.counts = np.zeros((len(self.radii), n_paths), dtype=np.int64)
        self.n_samples = 0
        # reused across blocks: |x - z| and the in-band mask
        self._dist = np.empty((0, n_paths))
        self._inside = np.empty((0, n_paths), dtype=bool)

    def update(self, t0, xs, ys, zs):
        nb = xs.shape[0]
        self.n_samples += nb
        if self._dist.shape[0] < nb:
            self._dist = np.empty(xs.shape)
            self._inside = np.empty(xs.shape, dtype=bool)
        d = self._dist[:nb]
        inside = self._inside[:nb]
        np.subtract(xs, zs, out=d)
        np.abs(d, out=d)
        for ri, a2 in enumerate(self.radii):
            np.less_equal(d, a2, out=inside)
            self.counts[ri] += inside.sum(axis=0)

    def probability(self, radius_index: int):
        """(value, se): the mean of the per-path band fractions (in [0, 1],
        nondecreasing in the radius) and its standard error across paths
        (NaN for one path). Raises DegenerateInput before any row."""
        if self.n_samples == 0:
            raise DegenerateInput("no samples observed")
        return _pooled_stats(self.counts[radius_index] / self.n_samples)


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
    checkpoint when mean - 3*se exceeds the bound, se being across paths.
    Raises DegenerateInput below 2 paths, for no checkpoint, for a
    checkpoint time that is not finite or rounds to no step (round(t / dt)
    below 1), and, through simulate_paths before any path is set up, for a
    block below 1; n_paths >= 100 is expected for the statistics to mean
    anything.
    """
    if cfg.n_paths < 2:
        raise DegenerateInput(f"the energy check needs >= 2 paths, got {cfg.n_paths}")
    checkpoint_times = sorted(checkpoint_times)
    if not checkpoint_times:
        raise DegenerateInput("the energy check needs at least one checkpoint time")
    for t in checkpoint_times:
        if not (math.isfinite(t) and round(t / cfg.dt) >= 1):
            raise DegenerateInput(
                f"checkpoint time {t} is not a finite time of at least one "
                f"step of dt = {cfg.dt}"
            )
    steps = [int(round(t / cfg.dt)) for t in checkpoint_times]
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
