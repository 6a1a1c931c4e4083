import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from handforge import kinematics as kin
from handforge.errors import NonConvergence
from handforge.kinematics import (
    DEFAULT_LIMITS,
    STAGE_WEIGHTS,
    FingerConfig,
    JointState,
    TendonStage,
    fingertip_position,
    load_presets,
    max_displacement,
    sweep_trajectory,
    solve_flexion,
)


def make_config(b=(10.0, 8.0, 6.0), h=(1.0, 0.8, 0.6), springs=(50.0, 40.0, 30.0),
                lengths=(45.0, 25.0, 20.0), limits=DEFAULT_LIMITS, design_id="test"):
    stages = tuple(TendonStage(bb, hh) for bb, hh in zip(b, h))
    return FingerConfig(lengths, stages, springs, design_id, limits)


def random_config(rng):
    return make_config(
        b=rng.uniform(1.0, 12.0, 3),
        h=rng.uniform(0.2, 3.0, 3),
        springs=rng.uniform(5.0, 60.0, 3),
    )


def elastic_energy(cfg, phis):
    return 0.5 * sum(k * p * p for k, p in zip(cfg.springs, phis))


def oracle_min_energy(cfg, d, grid=200):
    """Brute-force minimum energy over a (phi_p, phi_i) lattice with phi_d
    solved exactly from the cable constraint."""
    wp, wi, wd = STAGE_WEIGHTS
    sp, si, sd = cfg.stages
    best = math.inf
    for pp in np.linspace(0.0, cfg.limits[0], grid):
        for pi in np.linspace(0.0, cfg.limits[1], grid):
            need = (d - wp * sp.excursion(pp) - wi * si.excursion(pi)) / wd
            if need < 0:
                continue
            if sd.h > 0:
                pd = (-sd.b + math.sqrt(sd.b ** 2 + 4.0 * sd.h * need)) / (2.0 * sd.h)
            else:
                pd = need / sd.b
            if pd > cfg.limits[2] + 1e-12:
                continue
            e = elastic_energy(cfg, (pp, pi, min(pd, cfg.limits[2])))
            if e < best:
                best = e
    return best


class TestExcursion:
    def test_quadratic_law_values(self):
        stage = TendonStage(10.0, 2.0)
        assert stage.excursion(1.0) == pytest.approx(12.0)
        assert stage.excursion(0.5) == pytest.approx(5.5)
        assert stage.excursion(0.0) == 0.0

    def test_strictly_increasing(self):
        stage = TendonStage(3.0, 0.5)
        phis = np.linspace(0.0, 2.0, 50)
        vals = [stage.excursion(p) for p in phis]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            TendonStage(0.0, 0.0)
        with pytest.raises(ValueError):
            TendonStage(-1.0, 0.5)

    @pytest.mark.parametrize("b, h", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_coefficients(self, b, h):
        with pytest.raises(ValueError, match="finite"):
            TendonStage(b, h)


class TestCumulative:
    def test_straight_finger_zeros(self):
        cfg = make_config()
        assert kin.cumulative_excursion(cfg, JointState(0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_proximal_only_doubles_distally(self):
        cfg = make_config()
        e = cfg.stages[0].excursion(0.7)
        lp, li, ld = kin.cumulative_excursion(cfg, JointState(0.7, 0.0, 0.0))
        assert lp == pytest.approx(e)
        assert li == pytest.approx(e)
        assert ld == pytest.approx(2 * e)

    def test_chain_bookkeeping_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            cfg = random_config(rng)
            phis = rng.uniform(0.0, 1.2, 3)
            ep, ei, ed = (s.excursion(p) for s, p in zip(cfg.stages, phis))
            lp, li, ld = kin.cumulative_excursion(cfg, JointState(*phis))
            assert lp == pytest.approx(ep)
            assert li == pytest.approx(ep + ei)
            assert ld == pytest.approx(2 * ep + ei + ed)
            assert ld == pytest.approx(kin._distal_length(cfg, phis))


class TestSolveFlexion:
    def test_zero_displacement(self):
        state = solve_flexion(make_config(), 0.0)
        assert state.angles == (0.0, 0.0, 0.0)
        assert not state.saturated

    def test_negative_displacement(self):
        with pytest.raises(ValueError):
            solve_flexion(make_config(), -1.0)

    @pytest.mark.parametrize("d", [math.nan, math.inf])
    def test_non_finite_displacement(self, d):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {d}"):
            solve_flexion(make_config(), d)

    def test_constraint_satisfied(self):
        cfg = make_config()
        for d in (1.0, 5.0, 12.0, 20.0):
            state = solve_flexion(cfg, d)
            _, _, ld = kin.cumulative_excursion(cfg, state)
            assert ld == pytest.approx(d, abs=1e-9)

    def test_saturation(self):
        cfg = make_config()
        lmax = max_displacement(cfg)
        state = solve_flexion(cfg, lmax + 5.0)
        assert state.saturated
        assert state.angles == cfg.limits

    def test_interior_stationarity(self):
        # at an interior optimum, k*phi / (w * de/dphi) is equal across joints
        cfg = make_config()
        state = solve_flexion(cfg, 6.0)
        ratios = []
        for k, p, w, s, lim in zip(cfg.springs, state.angles, STAGE_WEIGHTS,
                                   cfg.stages, cfg.limits):
            if 1e-9 < p < 0.999 * lim:
                ratios.append(k * p / (w * (s.b + 2.0 * s.h * p)))  # de/dphi = b + 2h*phi
        assert len(ratios) >= 2
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-4)

    def test_energy_not_above_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            cfg = random_config(rng)
            d = rng.uniform(0.1, 0.9) * max_displacement(cfg)
            state = solve_flexion(cfg, d)
            assert elastic_energy(cfg, state.angles) <= oracle_min_energy(cfg, d) + 1e-3

    def test_angles_monotone_in_displacement(self):
        cfg = make_config()
        prev = (0.0, 0.0, 0.0)
        for d in np.linspace(0.0, max_displacement(cfg), 40):
            state = solve_flexion(cfg, float(d))
            assert all(b >= a - 1e-9 for a, b in zip(prev, state.angles))
            prev = state.angles

    def test_displacement_continuity(self):
        # solution angles are Lipschitz in the input displacement
        cfg = make_config()
        step = 1e-4
        for d in (2.0, 8.0, 15.0):
            a = solve_flexion(cfg, d).angles
            b = solve_flexion(cfg, d + step).angles
            rate = max(abs(x - y) for x, y in zip(a, b)) / step
            # bounded by ~1/(w*b_min) with generous slack
            assert rate < 10.0 / min(s.b for s in cfg.stages)

    def test_b_zero_stage_reaches_the_minimum(self):
        # the PIP joint jumps from 0 to its limit at mu = k/(2wh), where its
        # energy is flat, so it takes the residual; a 600 x 600 lattice
        # finds 68.3 N*mm, and the oracle solver, which puts the residual
        # into the first joint that can take it, 134.7
        cfg = make_config(b=(4.14, 0.0, 5.87), h=(0.786, 2.734, 0.247), springs=(21.69, 59.95, 19.42))
        state = solve_flexion(cfg, 26.87)
        assert kin._distal_length(cfg, state.angles) == pytest.approx(26.87, abs=1e-9)
        assert elastic_energy(cfg, state.angles) <= 68.3

    def test_tied_b_zero_stages_share_the_residual(self):
        # PIP and DIP both jump at mu = k/(2wh) = 1, so one joint cannot
        # always take the whole residual
        cfg = make_config(b=(8.0, 0.0, 0.0), h=(2.0, 1.0, 1.0), springs=(30.0, 2.0, 2.0))
        for d in np.linspace(0.0, max_displacement(cfg), 200)[1:-1]:
            state = solve_flexion(cfg, float(d))
            assert kin._distal_length(cfg, state.angles) == pytest.approx(d, abs=1e-9)
            assert elastic_energy(cfg, state.angles) <= elastic_energy(
                cfg, oracles.solve_flexion(cfg, float(d)).angles) + 1e-9

    def test_stiff_springs_solve(self):
        # scaling every spring by one factor keeps the minimizer
        d = 0.5 * max_displacement(make_config())
        stiff = solve_flexion(make_config(springs=(5e69, 4e69, 3e69)), d)
        assert stiff.angles == pytest.approx(solve_flexion(make_config(), d).angles, rel=1e-12)

    def test_overflowing_multiplier_is_refused(self):
        # the multiplier needed is about 5e307, and 2*mu*w*h overflows to
        # inf * 0 = nan on the way
        cfg = make_config(b=(1.0, 1.0, 1.0), h=(0.0, 0.0, 0.0), springs=(1e308, 1e308, 1e308))
        with pytest.raises(NonConvergence, match="test: residual nan"):
            solve_flexion(cfg, 0.5 * max_displacement(cfg))


@st.composite
def solves(draw, b_zero):
    """A wide design and a displacement of 0, or 1e-9 to 1.05 times its
    all-limits one; with `b_zero`, one or more stages have b = 0 (and h > 0).
    Far below 1e-9 the oracle solver's 300-step cap ends its bisection
    early: at d = 3e-251 mm it returns angles of 1e-91 rad."""
    b = [draw(st.floats(0.01, 20.0)) for _ in range(3)]
    if b_zero:
        for j in draw(st.sets(st.integers(0, 2), min_size=1)):
            b[j] = 0.0
    h = [draw(st.floats(0.0, 5.0) if bj > 0 else st.floats(0.01, 5.0)) for bj in b]
    cfg = make_config(b=b, h=h, springs=[draw(st.floats(1.0, 100.0)) for _ in range(3)])
    return cfg, draw(st.just(0.0) | st.floats(1e-9, 1.05)) * max_displacement(cfg)


@settings(max_examples=300, deadline=None)
@given(solves(b_zero=False))
def test_b_positive_designs_match_the_oracle_solver(solve):
    # where every b > 0 the multiplier map is continuous, and the bisection
    # ends at the float the oracle's capped bisection ends at
    cfg, d = solve
    assert solve_flexion(cfg, d) == oracles.solve_flexion(cfg, d)


@settings(max_examples=300, deadline=None)
@given(solves(b_zero=True))
def test_b_zero_designs_no_worse_than_the_oracle_solver(solve):
    cfg, d = solve
    state = solve_flexion(cfg, d)
    assert kin._distal_length(cfg, state.angles) == pytest.approx(min(d, max_displacement(cfg)), abs=1e-9)
    try:
        oracle = oracles.solve_flexion(cfg, d)
    except NonConvergence:  # no joint could take the oracle's whole residual
        return
    assert state.saturated == oracle.saturated
    assert elastic_energy(cfg, state.angles) <= elastic_energy(cfg, oracle.angles) + 1e-9


class TestForwardKinematics:
    def test_straight(self):
        cfg = make_config()
        assert fingertip_position(cfg, JointState(0, 0, 0)) == pytest.approx((90.0, 0.0))

    def test_mcp_right_angle(self):
        cfg = make_config()
        y, z = fingertip_position(cfg, JointState(math.pi / 2, 0.0, 0.0))
        assert (y, z) == pytest.approx((0.0, -90.0), abs=1e-9)

    def test_all_right_angles(self):
        cfg = make_config()
        y, z = fingertip_position(cfg, JointState(math.pi / 2, math.pi / 2, math.pi / 2))
        # links go down, back, then up: y = -25, z = -45 + 20
        assert (y, z) == pytest.approx((-25.0, -25.0), abs=1e-9)


class TestSweep:
    def test_two_step_sweep(self):
        cfg = make_config()
        traj = sweep_trajectory(cfg, 10.0, 2)
        assert traj.points.shape == (2, 2)
        assert traj.displacements.tolist() == [0.0, 10.0]
        assert tuple(traj.points[0]) == pytest.approx((90.0, 0.0))

    def test_zero_displacement_sweep(self):
        traj = sweep_trajectory(make_config(), 0.0, 5)
        assert np.allclose(traj.points, traj.points[0])

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            sweep_trajectory(make_config(), 10.0, 1)

    @pytest.mark.parametrize("dmax", [math.nan, math.inf, -1.0])
    def test_invalid_displacement_max(self, dmax):
        with pytest.raises(ValueError, match=f"displacement_max must be finite and >= 0, got {dmax}"):
            sweep_trajectory(make_config(), dmax, 4)

    def test_metrics(self):
        traj = sweep_trajectory(make_config(), 15.0, 20)
        m = kin.trajectory_metrics(traj)
        assert m["min_y"] <= 90.0
        assert m["final_y"] == pytest.approx(traj.points[-1, 0])
        assert m["path_length"] > 0


class TestPresets:
    def test_load_shape(self):
        configs, meta = load_presets()
        assert len(configs) == 6
        assert meta["baseline"] in configs
        assert meta["steps"] >= 2

    def test_y_monotone_nonincreasing_all_designs(self):
        configs, meta = load_presets()
        for cfg in configs.values():
            traj = sweep_trajectory(cfg, meta["displacement_max"], meta["steps"])
            ys = traj.points[:, 0]
            assert np.all(np.diff(ys) <= 1e-9), cfg.design_id

    def test_baseline_is_shallowest(self):
        configs, meta = load_presets()
        result = kin.compare_designs({
            name: sweep_trajectory(cfg, meta["displacement_max"], meta["steps"])
            for name, cfg in configs.items()
        })
        assert result["ranking"][-1] == meta["baseline"]
        baseline_min = result["designs"][meta["baseline"]]["min_y"]
        for name, metrics in result["designs"].items():
            if name != meta["baseline"]:
                assert metrics["min_y"] < baseline_min

    def test_smaller_coefficients_flex_deeper(self):
        # halving b and h doubles the rotation bought per mm of cable
        configs, meta = load_presets()
        base = configs[meta["baseline"]]
        slimmed = FingerConfig(
            base.lengths,
            tuple(TendonStage(s.b / 2, s.h / 2) for s in base.stages),
            base.springs, "slimmed", base.limits)
        d, n = meta["displacement_max"], meta["steps"]
        assert (kin.trajectory_metrics(sweep_trajectory(slimmed, d, n))["min_y"]
                < kin.trajectory_metrics(sweep_trajectory(base, d, n))["min_y"])


@pytest.mark.parametrize("field", ["lengths", "springs", "limits"])
@pytest.mark.parametrize("value", [(1.0, 2.0), (1.0, 2.0, math.nan), (1.0, 2.0, math.inf)])
def test_config_needs_three_positive_finite_values(field, value):
    with pytest.raises(ValueError, match="need 3 positive finite"):
        make_config(**{field: value})
