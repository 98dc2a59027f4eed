import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from bepo import sde
from bepo.errors import BepoError, DegenerateInput, NegativeBand, NonFiniteState
from bepo.grid import GridSpec, build_grid
from bepo.model import ForceSpec, ModelParams, drift_beta, lyapunov_constants, lyapunov_value
from bepo.observables import plastic_band
from bepo.sde import (
    BandObserver,
    CrossingObserver,
    OscState,
    Phase,
    SampleRecorder,
    SimConfig,
    crossing_frequency_mc,
    ergodic_average_mc,
    lyapunov_check_mc,
    serviceability_mc,
    simulate_paths,
    simulate_trajectory,
    step_euler,
)
from bepo.solver import rice_rate

MODEL = ModelParams()


# --- single step ---------------------------------------------------------------


def test_step_fixed_point_at_origin():
    s = OscState(0.0, 0.0, 0.0)
    out = step_euler(s, 1e-3, 0.0, MODEL)
    assert (out.x, out.y, out.z) == (0.0, 0.0, 0.0)
    assert out.phase is Phase.ELASTIC


def test_step_clamps_and_flags_phase():
    s = OscState(0.0, 1.0, 0.9995)
    out = step_euler(s, 1e-3, 0.0, MODEL)
    assert out.z == 1.0
    assert out.phase is Phase.PLASTIC_PLUS
    assert out.x == pytest.approx(1e-3)
    # y' = 1 + (-1 - 0.5*0.9995 - 0)*1e-3
    assert out.y == pytest.approx(0.99850025, abs=1e-15)


def test_step_velocity_is_the_drift_update_to_a_few_ulps():
    # step_euler and simulate_paths share their coefficients, so the bitwise
    # tests cannot see a term dropped from both: check y' against
    # y + beta*dt + sigma*dW with every force and stiffness term nonzero
    p = ModelParams(
        k=1.3, alpha=0.2, b=0.7, sigma=0.8, force=ForceSpec(c0=0.9, c1=0.1, const=0.05)
    )
    dt = 5e-3
    rng = np.random.default_rng(3)
    for x, y, z, dW in zip(*rng.uniform(-4.0, 4.0, (3, 200)), rng.normal(0, 0.1, 200)):
        s = OscState(x, y, np.clip(z, -p.b, p.b))
        terms = (y, drift_beta(s.x, s.y, s.z, p) * dt, p.sigma * dW)
        got = step_euler(s, dt, dW, p).y
        assert abs(got - sum(terms)) <= 8 * np.spacing(sum(map(abs, terms)))


def test_step_z_uses_old_velocity():
    s = OscState(0.0, 2.0, 0.0)
    out = step_euler(s, 0.5, 0.0, ModelParams(b=10.0))
    assert out.z == 1.0  # 0 + 2*0.5, not the updated velocity


# --- trajectories ----------------------------------------------------------------


def test_zero_noise_origin_is_frozen():
    p = ModelParams(sigma=0.0)
    cfg = SimConfig(dt=1e-3, n_steps=2000, burn_in=0, n_paths=1)
    rec = SampleRecorder()
    simulate_trajectory(cfg, p, observers=[rec])
    xs, ys, zs = rec.arrays()
    assert np.abs(xs).max() == 0.0
    assert np.abs(ys).max() == 0.0
    assert np.abs(zs).max() == 0.0


def test_zero_noise_elastic_regime_matches_reference_ode():
    # independent oracle: in the elastic regime with z == x, the dynamics is
    # x'' = -x' - x; integrate that 2D system with the same Euler scheme
    p = ModelParams(sigma=0.0)
    cfg = SimConfig(
        dt=1e-3, n_steps=20000, burn_in=0, init=OscState(0.5, 0.0, 0.5)
    )
    rec = SampleRecorder()
    simulate_trajectory(cfg, p, observers=[rec])
    xs, ys, zs = rec.arrays()
    assert np.abs(zs[:, 0] - xs[:, 0]).max() == 0.0  # z tracks x bit-exactly

    x, y = 0.5, 0.0
    ref_x = np.empty(cfg.n_steps)
    ref_y = np.empty(cfg.n_steps)
    dt = cfg.dt
    for n in range(cfg.n_steps):
        x, y = x + y * dt, y + (-y - 0.5 * x - 0.5 * x) * dt
        ref_x[n] = x
        ref_y[n] = y
    assert np.abs(ref_x - xs[:, 0]).max() < 1e-12
    assert np.abs(ref_y - ys[:, 0]).max() < 1e-12

    # energy decays monotonically across whole-period windows (period ~ 2*pi)
    energy = xs[:, 0] ** 2 + ys[:, 0] ** 2
    window = int(2 * math.pi / dt)
    marks = energy[::window]
    assert (np.diff(marks) < 0).all()


def test_same_seed_bit_identical():
    cfg = SimConfig(dt=1e-3, n_steps=5000, burn_in=100, seed=42)
    recs = []
    for _ in range(2):
        rec = SampleRecorder()
        simulate_trajectory(cfg, MODEL, observers=[rec])
        recs.append(rec.arrays())
    for a, b in zip(recs[0], recs[1]):
        assert np.array_equal(a, b)


def test_block_size_does_not_change_results():
    cfg = SimConfig(dt=1e-3, n_steps=3000, burn_in=0, seed=7, n_paths=3)
    outs = []
    for block in (64, 1024):
        rec = SampleRecorder()
        simulate_paths(cfg, MODEL, [rec], block=block)
        outs.append(rec.arrays())
    for a, b in zip(outs[0], outs[1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_steps", [3000, 3072], ids=["partial-last-block", "whole-blocks"])
def test_stages_carry_the_producers_noise_seconds_and_change_no_sample(n_steps):
    """The producer sends its own seconds of drawing, scaling and writing
    the noise with the last block; asking for them changes no sample."""
    cfg = SimConfig(dt=1e-3, n_steps=n_steps, burn_in=0, seed=7, n_paths=3)
    outs, stages = [], {}
    for given in (None, stages):
        rec = SampleRecorder()
        simulate_paths(cfg, MODEL, [rec], block=512, stages=given)
        outs.append(rec.arrays())
    assert math.isfinite(stages["noise_draw_s"]) and stages["noise_draw_s"] > 0
    for a, b in zip(outs[0], outs[1]):
        assert np.array_equal(a, b)


def test_engine_matches_scalar_stepper_bitwise():
    cfg = SimConfig(dt=1e-3, n_steps=4000, burn_in=0, seed=11)
    rec = SampleRecorder()
    simulate_paths(cfg, MODEL, [rec], block=512)
    xs, ys, zs = rec.arrays()

    rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(0,)))
    noise = rng.standard_normal(cfg.n_steps)
    dW = noise * np.sqrt(cfg.dt)
    s = OscState(0.0, 0.0, 0.0)
    for n in range(cfg.n_steps):
        s = step_euler(s, cfg.dt, dW[n], MODEL)
        assert xs[n, 0] == s.x and ys[n, 0] == s.y and zs[n, 0] == s.z


def test_engine_matches_scalar_stepper_bitwise_nondefault_model():
    # every force and stiffness term nonzero, several paths, a block size
    # that does not divide the horizon: the vectorized step must keep each
    # term of drift_beta and step_euler, in their order
    p = ModelParams(
        k=1.3, alpha=0.2, b=0.7, sigma=0.8, force=ForceSpec(c0=0.9, c1=0.1, const=0.05)
    )
    cfg = SimConfig(
        dt=5e-3, n_steps=2000, burn_in=0, seed=23, n_paths=3,
        init=OscState(0.3, -0.2, 0.1),
    )
    rec = SampleRecorder()
    simulate_paths(cfg, p, [rec], block=333)
    xs, ys, zs = rec.arrays()
    assert (np.abs(zs) == p.b).any(), "the clamp should be exercised"

    for i in range(cfg.n_paths):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=23, spawn_key=(i,)))
        dW = rng.standard_normal(cfg.n_steps) * np.sqrt(cfg.dt)
        s = cfg.init
        for n in range(cfg.n_steps):
            s = step_euler(s, cfg.dt, dW[n], p)
            assert xs[n, i] == s.x and ys[n, i] == s.y and zs[n, i] == s.z


def test_paths_do_not_depend_on_the_number_of_paths():
    outs = []
    for n_paths in (3, 5):
        cfg = SimConfig(dt=1e-3, n_steps=1500, burn_in=0, seed=31, n_paths=n_paths)
        rec = SampleRecorder()
        final = simulate_paths(cfg, MODEL, [rec], block=256)
        outs.append((rec.arrays(), final))
    (samples3, final3), (samples5, final5) = outs
    for a, b in zip(samples3, samples5):
        assert np.array_equal(a, b[:, :3])
    for a, b in zip(final3, final5):
        assert np.array_equal(a, b[:3])


def test_z_bounded_and_phase_consistent():
    cfg = SimConfig(dt=1e-3, n_steps=50_000, burn_in=0, seed=3)
    rec = SampleRecorder()
    simulate_trajectory(cfg, MODEL, observers=[rec])
    _, _, zs = rec.arrays()
    assert np.abs(zs).max() <= MODEL.b
    # the bound is attained (plastic excursions happen on this horizon)
    assert (np.abs(zs) == MODEL.b).any()


def test_phase_events_alternate_per_side():
    cfg = SimConfig(dt=1e-3, n_steps=200_000, burn_in=0, seed=5)
    stats = simulate_trajectory(cfg, MODEL)
    assert stats.events, "expected plastic events on this horizon"
    for side in (MODEL.b, -MODEL.b):
        kinds = [e.kind for e in stats.events if e.side == side]
        assert kinds, "both sides should be visited"
        assert kinds[0] == "entry"
        for prev, cur in zip(kinds, kinds[1:]):
            assert prev != cur, "entries and exits must alternate"


def test_antisymmetry_under_noise_negation():
    # scalar-loop oracle: negating every increment negates the whole
    # trajectory bit-exactly when the force is odd and the start is 0
    rng = np.random.default_rng(17)
    dW = rng.standard_normal(20_000) * math.sqrt(1e-3)
    s_pos = OscState(0.0, 0.0, 0.0)
    s_neg = OscState(0.0, 0.0, 0.0)
    xs_pos = np.empty(len(dW))
    xs_neg = np.empty(len(dW))
    for n, inc in enumerate(dW):
        s_pos = step_euler(s_pos, 1e-3, inc, MODEL)
        s_neg = step_euler(s_neg, 1e-3, -inc, MODEL)
        assert s_neg.x == -s_pos.x and s_neg.y == -s_pos.y and s_neg.z == -s_pos.z
        xs_pos[n] = s_pos.x
        xs_neg[n] = s_neg.x
    a1 = 0.4
    assert crossing_frequency_mc(xs_pos, 1e-3, a1) == crossing_frequency_mc(
        xs_neg, 1e-3, -a1
    )


def test_nonfinite_state_raises():
    cfg = SimConfig(dt=1e3, n_steps=10_000, burn_in=0, seed=1)
    with pytest.raises(NonFiniteState):
        simulate_trajectory(cfg, MODEL)


def test_trajectory_run_rejects_several_paths():
    with pytest.raises(DegenerateInput, match="one path"):
        simulate_trajectory(SimConfig(n_steps=100, n_paths=2), MODEL)


def test_outside_box_fraction():
    cfg = SimConfig(dt=1e-3, n_steps=20_000, burn_in=0, seed=2)
    recorder = SampleRecorder()
    stats = simulate_trajectory(cfg, MODEL, [recorder], box=(3.5, 3.5))
    assert 0.0 <= stats.outside_box_fraction < 0.05
    tight = simulate_trajectory(cfg, MODEL, box=(0.1, 0.1))
    assert tight.outside_box_fraction > stats.outside_box_fraction
    # the same share as counted on the recorded samples, to the last bit
    xs, ys, _ = recorder.arrays()
    for box, run in (((3.5, 3.5), stats), ((0.1, 0.1), tight)):
        outside = int(((np.abs(xs) > box[0]) | (np.abs(ys) > box[1])).sum())
        assert run.outside_box_fraction == outside / xs.size


# --- estimators ------------------------------------------------------------------


def test_crossing_constant_path():
    assert crossing_frequency_mc(np.full(100, 0.5), 1.0, 1.0) == 0.0


def test_crossing_alternating_path():
    assert crossing_frequency_mc(np.array([-1.0, 1.0, -1.0]), 1.0, 0.0) == 1.0


def test_crossing_sinusoid_analytic():
    # two crossings of zero per unit time for sin(2*pi*t)
    t = np.arange(0, 1.0 + 1e-9, 1e-3)
    x = np.sin(2 * np.pi * t)
    assert crossing_frequency_mc(x, 1e-3, 0.0) == pytest.approx(2.0)


def test_crossing_tie_rule_no_double_count():
    # touching the level without crossing it does not count
    x = np.array([1.0, 0.5, 0.5, 1.0, 0.5, 2.0])
    assert crossing_frequency_mc(x, 1.0, 0.5) == 0.0
    # passing through the level counts once
    x = np.array([1.0, 0.5, -1.0])
    assert crossing_frequency_mc(x, 1.0, 0.5) == pytest.approx(0.5)


def test_crossing_degenerate():
    with pytest.raises(DegenerateInput):
        crossing_frequency_mc(np.array([1.0]), 1.0, 0.0)


def test_serviceability_counts():
    x = np.array([0.1, 0.5, 1.0])
    z = np.zeros(3)
    assert serviceability_mc(x, z, 0.5) == pytest.approx(2.0 / 3.0)
    assert serviceability_mc(x, x, 0.0) == 1.0
    assert serviceability_mc(x, z, 2.0) == 1.0


def test_serviceability_monotone_in_band():
    rng = np.random.default_rng(23)
    x = rng.normal(size=1000)
    z = np.clip(x + rng.normal(size=1000), -1, 1)
    values = [serviceability_mc(x, z, a2) for a2 in np.linspace(0, 4, 33)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


def test_serviceability_errors():
    with pytest.raises(NegativeBand):
        serviceability_mc(np.ones(3), np.ones(3), -1.0)
    with pytest.raises(DegenerateInput):
        serviceability_mc(np.array([]), np.array([]), 1.0)


def test_ergodic_average_constant():
    x = np.ones(400)
    value = ergodic_average_mc(lambda x, y, z: np.ones_like(x), x, x, x)
    assert value == 1.0


def test_ergodic_average_matches_serviceability():
    rng = np.random.default_rng(29)
    x = rng.normal(size=500)
    z = np.clip(x, -1, 1)
    y = rng.normal(size=500)
    a2 = 0.7
    g = lambda xs, ys, zs: (np.abs(xs - zs) <= a2).astype(float)
    value = ergodic_average_mc(g, x, y, z)
    assert value == serviceability_mc(x, z, a2)


def test_ergodic_average_scaling():
    rng = np.random.default_rng(31)
    x = rng.normal(size=500)
    g1 = lambda xs, ys, zs: xs**2
    g5 = lambda xs, ys, zs: 5.0 * xs**2
    v1 = ergodic_average_mc(g1, x, x, x)
    v5 = ergodic_average_mc(g5, x, x, x)
    assert v5 == pytest.approx(5.0 * v1, rel=1e-14)


def test_ergodic_average_empty():
    with pytest.raises(DegenerateInput):
        ergodic_average_mc(lambda x, y, z: x, np.array([]), np.array([]), np.array([]))


# --- observers vs estimator functions --------------------------------------------


def test_observers_match_estimators_multi_block():
    cfg = SimConfig(dt=1e-3, n_steps=30_000, burn_in=300, seed=13)
    levels = [-0.5, 0.0, 1.2]
    radii = [0.25, 1.0]
    cobs = CrossingObserver(levels, cfg.dt, cfg.n_paths)
    bobs = BandObserver(radii, cfg.n_paths)
    rec = SampleRecorder()
    simulate_paths(cfg, MODEL, [cobs, bobs, rec], block=777)
    xs, ys, zs = rec.arrays()
    for li, a1 in enumerate(levels):
        value, se = cobs.frequency(li)
        assert value == crossing_frequency_mc(xs[:, 0], cfg.dt, a1)
        assert math.isnan(se)  # one path has no spread across paths
    for ri, a2 in enumerate(radii):
        value, se = bobs.probability(ri)
        assert value == serviceability_mc(xs[:, 0], zs[:, 0], a2)
        assert math.isnan(se)


# rows are samples, columns paths; levels 0.5 and -1.0 are hit exactly
PLANTED = np.array([
    [0.5, 1.0, 1.0, -2.0],
    [0.5, 0.5, 0.5, 3.0],
    [1.0, 0.5, 0.5, -0.3],
    [0.5, 0.5, 1.0, 0.7],
    [0.0, 0.0, 0.5, -1.0],
    [0.5, -1.0, 0.5, -1.5],
    [0.5, 0.5, 0.5, 0.2],
    [1.0, 0.5, 0.5, 0.9],
    [-1.0, 0.5, 2.0, 0.1],
    [-1.0, 2.0, 0.5, -0.4],
])


@pytest.mark.parametrize(
    "sizes, block_counts",
    [
        (
            [1, 2, 1, 3, 2, 1],
            [[0, 3, 1, 3, 4, 1], [0, 1, 0, 2, 0, 0], [0, 0, 0, 0, 0, 0]],
        ),
        (
            [2, 1, 1, 2, 1, 2, 1],
            [[1, 2, 1, 3, 0, 4, 1], [1, 0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0]],
        ),
    ],
)
def test_crossing_observer_on_level_samples(sizes, block_counts):
    # path 0 starts on the level 0.5, paths 1 and 2 sit on it across block
    # boundaries (path 2 only touches it), path 3 hits -1.0 once
    levels = [0.5, -1.0, 5.0]
    dt = 1.0
    obs = CrossingObserver(levels, dt, PLANTED.shape[1])
    start = 0
    totals = [obs.counts.sum(axis=1)]
    for nb in sizes:
        rows = PLANTED[start : start + nb]
        obs.update(start * dt, rows, rows, rows)
        start += nb
        totals.append(obs.counts.sum(axis=1))
    assert start == len(PLANTED)
    T = (len(PLANTED) - 1) * dt
    for li, a1 in enumerate(levels):
        for ip in range(PLANTED.shape[1]):
            assert obs.counts[li, ip] / T == crossing_frequency_mc(PLANTED[:, ip], dt, a1)
    assert obs.counts.tolist() == [[4, 2, 0, 6], [0, 0, 0, 3], [0, 0, 0, 0]]
    # each block adds the crossings that end in it, carried across boundaries
    assert np.diff(totals, axis=0).T.tolist() == block_counts


@pytest.mark.parametrize("n_paths", [1, 3])
def test_crossing_observer_needs_two_rows(n_paths):
    obs = CrossingObserver([0.0], 1e-3, n_paths)
    obs.update(0.0, *np.ones((3, 1, n_paths)))
    with pytest.raises(DegenerateInput):
        obs.frequency(0)


def test_band_observer_needs_a_row():
    with pytest.raises(DegenerateInput):
        BandObserver([1.0], 2).probability(0)


def test_cross_path_se_shrinks_with_more_paths():
    def se_of(n_paths):
        cfg = SimConfig(dt=1e-3, n_steps=20_000, burn_in=200, seed=1, n_paths=n_paths)
        obs = BandObserver([1.0], cfg.n_paths)
        simulate_paths(cfg, MODEL, [obs])
        return obs.probability(0)[1]

    assert se_of(64) < se_of(8)


def test_linear_limit_crossing_rate_matches_the_closed_form():
    """At alpha = 1 with c1 = const = 0, (X, Y) is the stationary linear
    oscillator, and the rate of crossings of a in both directions is
    nu(a) = (sqrt(k)/pi) exp(-a^2 c0 k / sigma^2). 256 paths at dt = 2e-3
    must land within 3 standard errors of it. The seed was fixed before
    the first run."""
    p = ModelParams(alpha=1.0)
    cfg = SimConfig(dt=2e-3, n_steps=50_000, burn_in=5_000, seed=2026, n_paths=256)
    levels = [0.0, 1.0]
    obs = CrossingObserver(levels, cfg.dt, cfg.n_paths)
    simulate_paths(cfg, p, [obs])
    for i, a in enumerate(levels):
        exact = math.sqrt(p.k) / math.pi * math.exp(-(a**2) * p.force.c0 * p.k / p.sigma**2)
        value, se = obs.frequency(i)
        assert abs(value - exact) <= 3 * se


# --- energy bound ------------------------------------------------------------------


def test_lyapunov_check_zero_noise_origin():
    p = ModelParams(sigma=0.0)
    r = lyapunov_constants(MODEL)
    cfg = SimConfig(dt=1e-3, n_steps=1000, n_paths=100, seed=0)
    report = lyapunov_check_mc(cfg, p, r, checkpoint_times=[0.1, 0.5])
    assert report.means == [0.0, 0.0]
    assert not report.violated


def test_lyapunov_check_needs_two_paths():
    r = lyapunov_constants(MODEL)
    cfg = SimConfig(dt=1e-3, n_steps=1000, n_paths=1, seed=0)
    with pytest.raises(DegenerateInput, match="2 paths"):
        lyapunov_check_mc(cfg, MODEL, r, checkpoint_times=[0.1])


def _never_set_up(monkeypatch):
    """Fail any run that gets as far as making its path generators: with no
    rows per block a run that starts never advances."""

    def never(seed, n_paths):
        raise AssertionError("the paths were set up before the input was checked")

    monkeypatch.setattr(sde, "_path_generators", never)


@pytest.mark.parametrize("z0", [5.0, -1.0000001])
def test_simulate_paths_rejects_an_initial_z_outside_the_box_before_forking(monkeypatch, z0):
    # the first step's drift would use the impossible z
    def no_fork(method):
        raise AssertionError("the producer was set up before the input was checked")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    cfg = SimConfig(dt=1e-3, n_steps=100, n_paths=2, init=OscState(0.0, 0.0, z0))
    with pytest.raises(DegenerateInput, match="outside"):
        simulate_paths(cfg, MODEL)


@pytest.mark.parametrize("z0", [-1.0, 1.0])
def test_an_initial_z_on_the_plastic_bound_runs(z0):
    cfg = SimConfig(dt=1e-3, n_steps=100, n_paths=2, init=OscState(0.0, 0.0, z0))
    x, y, z = simulate_paths(cfg, MODEL)
    assert (np.abs(z) <= MODEL.b).all()


def test_simulate_paths_rejects_an_empty_block_before_any_allocation(monkeypatch):
    _never_set_up(monkeypatch)
    cfg = SimConfig(dt=1e-3, n_steps=1000, n_paths=2, seed=0)
    with pytest.raises(DegenerateInput, match="block"):
        simulate_paths(cfg, MODEL, block=0)


# --- the noise producer ----------------------------------------------------------


class _Raises:
    def update(self, t0, xs, ys, zs):
        raise RuntimeError("observer failed")


@pytest.mark.parametrize(
    "dt, observers, error",
    [(1e-3, [], None), (1e3, [], NonFiniteState), (1e-3, [_Raises()], RuntimeError)],
    ids=["normal-return", "nonfinite-state", "observer-raises"],
)
def test_no_producer_outlives_the_run(dt, observers, error):
    # 100 blocks: the run ends or fails with the producer still drawing
    cfg = SimConfig(dt=dt, n_steps=10_000, burn_in=0, n_paths=3, seed=1)
    if error is None:
        simulate_paths(cfg, MODEL, observers, block=100)
    else:
        with pytest.raises(error):
            simulate_paths(cfg, MODEL, observers, block=100)
    assert multiprocessing.active_children() == []


def test_a_killed_producer_is_an_error_not_a_hang():
    class KillsTheProducer:
        def update(self, t0, xs, ys, zs):
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)

    def hung(signum, frame):
        pytest.fail("simulate_paths still waits for a killed producer")

    cfg = SimConfig(dt=1e-3, n_steps=10_000, burn_in=0, n_paths=3, seed=1)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(BepoError, match="producer exited"):
            simulate_paths(cfg, MODEL, [KillsTheProducer()], block=100)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "block, times, match",
    [
        (0, [0.1], "block"),
        (256, [], "checkpoint"),
        # times that are not finite or round to no step of dt = 1e-3
        (256, [-2.0, 0.001], "checkpoint time"),
        (256, [0.0004], "checkpoint time"),
        (256, [math.nan], "checkpoint time"),
        (256, [math.inf], "checkpoint time"),
    ],
    ids=[
        "block-0", "no-checkpoint", "negative-time", "below-half-step", "nan-time",
        "inf-time",
    ],
)
def test_lyapunov_check_rejects_an_empty_block_or_no_checkpoint(
    monkeypatch, block, times, match
):
    _never_set_up(monkeypatch)
    r = lyapunov_constants(MODEL)
    cfg = SimConfig(dt=1e-3, n_steps=1000, n_paths=2, seed=0)
    with pytest.raises(DegenerateInput, match=match):
        lyapunov_check_mc(cfg, MODEL, r, checkpoint_times=times, block=block)


def test_lyapunov_bound_uses_initial_energy():
    r = lyapunov_constants(MODEL)
    cfg = SimConfig(
        dt=1e-3, n_steps=1000, n_paths=100, seed=0, init=OscState(2.0, 2.0, 0.0)
    )
    report = lyapunov_check_mc(cfg, MODEL, r, checkpoint_times=[0.2])
    assert report.bound == pytest.approx(lyapunov_value(2.0, 2.0, r) + 10.5)
    assert report.bound == pytest.approx(22.5)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(n_steps=100, burn_in=100)
    with pytest.raises(ValueError):
        SimConfig(n_paths=0)


@pytest.mark.parametrize("n_steps", [0, -5])
def test_simconfig_rejects_no_steps_before_the_burn_in(n_steps):
    # the burn-in check would blame burn_in for a horizon of no step
    with pytest.raises(ValueError, match=f"n_steps must be >= 1, got {n_steps}"):
        SimConfig(n_steps=n_steps)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": math.inf},
        {"dt": math.nan},
        {"burn_in": -1},
        {"init": OscState(math.inf, 0.0, 0.0)},
        {"init": OscState(0.0, math.nan, 0.0)},
    ],
    ids=["dt-inf", "dt-nan", "burn_in-negative", "init_x-inf", "init_y-nan"],
)
def test_simconfig_rejects_nonfinite_and_negative_inputs(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModelParams(k=math.inf),
        lambda: ModelParams(b=math.inf),
        lambda: ModelParams(sigma=math.inf),
        lambda: ModelParams(sigma=math.nan),
        lambda: ForceSpec(c0=math.nan),
        lambda: ForceSpec(c1=math.inf),
        lambda: ForceSpec(const=-math.inf),
    ],
    ids=["k-inf", "b-inf", "sigma-inf", "sigma-nan", "c0-nan", "c1-inf", "const-minus-inf"],
)
def test_model_rejects_nonfinite_inputs(make):
    with pytest.raises(ValueError):
        make()


GRID9 = build_grid(GridSpec(lam=1e-2, I=9, J=9, K=9))
W9 = np.zeros(GRID9.spec.n_nodes)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: CrossingObserver([0.0, math.nan], 1e-3, 4), DegenerateInput),
        (lambda: BandObserver([0.5, math.nan], 4), NegativeBand),
        (lambda: rice_rate(W9, GRID9, math.nan), DegenerateInput),
        (lambda: serviceability_mc([0.0, 1.0], [0.0, 0.5], math.nan), NegativeBand),
        (lambda: crossing_frequency_mc([0.0, 1.0, -1.0], 1e-3, math.nan), DegenerateInput),
        (lambda: plastic_band(math.nan), NegativeBand),
    ],
    ids=["crossing-observer", "band-observer", "rice", "serviceability", "crossing", "band"],
)
def test_a_nan_level_or_radius_is_rejected(call, error):
    # a NaN compares false both ways, so unchecked it reads as an empty band,
    # a level never crossed or one crossed at every step
    with pytest.raises(error, match="NaN|nan"):
        call()


def test_an_infinite_level_or_radius_keeps_its_meaning():
    x, z = [0.0, 1.0, -1.0], [0.0, 0.5, -0.5]
    assert serviceability_mc(x, z, math.inf) == 1.0
    assert crossing_frequency_mc(x, 1e-3, math.inf) == 0.0
    assert crossing_frequency_mc(x, 1e-3, -math.inf) == 0.0
    assert rice_rate(W9, GRID9, math.inf) == 0.0
    assert plastic_band(math.inf)(np.array(x), 0.0, np.array(z)).tolist() == [1.0] * 3
