"""End-to-end acceptance battery.

Every numerical claim is checked against an independent oracle (Monte-Carlo
simulation, quadrature, finite differences, or a closed-form anchor), and the
scenario-level behavior claims are checked on seeded episode batteries.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from namoplan import scenario_path
from namoplan.blockage import (ObstaclePopulation, blockage_at_width,
                               blockage_given_size)
from namoplan.decision import decide
from namoplan.experiments import (evaluate_bypass_predictors,
                                  generate_bypass_benchmark)
from namoplan.intervals import CostInterval
from namoplan.observation import (PoseBelief, RangeBearingMeasurement,
                                  RobotPoseBelief, fuse, project_measurement)
from namoplan.removal import (BetaBelief, beta_ppf,
                              expected_removal_cost, success_rate_interval)
from namoplan.simulator import ScenarioConfig, run_episode

WAREHOUSE_SUITE = ["warehouse_abc", "warehouse_ab", "warehouse_abd",
                   "warehouse_abe", "warehouse_bc", "warehouse_bce"]


def _scenario(name, estimated_sr=None, true_sr=None):
    cfg = ScenarioConfig.from_yaml(scenario_path(f"{name}.yaml"))
    if estimated_sr is not None:
        cfg = replace(cfg, estimated_sr=estimated_sr)
    if true_sr is not None:
        cfg = replace(cfg, obstacles=tuple(replace(spec, true_sr=true_sr)
                                           for spec in cfg.obstacles))
    return cfg


def _battery(name, policy, seeds, estimated_sr=None, true_sr=None):
    cfg = _scenario(name, estimated_sr, true_sr)
    return [run_episode(cfg, policy, seed=seed) for seed in seeds]


def _mean_elapsed(records):
    return float(np.mean([r.elapsed for r in records]))


def _first_decision(record):
    return next(e for e in record.decisions if e["event"] == "decision")


# -- corridor blockage model vs offset simulation ------------------------


def test_corridor_blockage_matches_offset_simulation():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    n = 1_000_000
    for _ in range(200):
        w = rng.uniform(0.5, 5.0)
        r = rng.uniform(0.1, 0.6)
        l = rng.uniform(0.05, w - 0.01)
        d = rng.uniform(l / 2, w - l / 2, n)
        blocked = np.maximum(d - l / 2, w - d - l / 2) < 2 * r
        p_mc = float(blocked.mean())
        se = math.sqrt(max(p_mc * (1 - p_mc), 0.0) / n)
        assert abs(blockage_given_size(l, w, r) - p_mc) <= 3 * se + 1e-9
    assert time.monotonic() - start < 60.0


# -- population marginalization vs quadrature ----------------------------


def test_population_blockage_matches_quadrature():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    for _ in range(50):
        mu = rng.uniform(0.5, 2.5)
        sigma = rng.uniform(0.02, mu / 6.0)
        w = rng.uniform(1.0, 4.0)
        r = rng.uniform(0.1, 0.5)
        pop = ObstaclePopulation(mu, sigma, 1.0, 100.0)
        xs = np.linspace(max(1e-6, mu - 6 * sigma), mu + 6 * sigma, 100_000)
        pdf = np.exp(-0.5 * ((xs - mu) / sigma) ** 2)
        pdf /= np.trapezoid(pdf, xs)
        vals = np.array([blockage_given_size(x, w, r) for x in xs])
        quad = float(np.trapezoid(vals * pdf, xs))
        got = blockage_at_width(pop, w, r)
        assert abs(got - quad) <= 0.01
    assert time.monotonic() - start < 30.0


# -- expected removal cost vs attempt simulation -------------------------


def test_expected_removal_cost_matches_attempt_simulation():
    rng = np.random.default_rng(3)
    t_mo, c_by = 10.0, 20.0
    n = 1_000_000
    for p in (0.2, 0.5, 0.9):
        for m in (1, 3, 5):
            hits = rng.random((n, m)) < p
            any_hit = hits.any(axis=1)
            first = np.argmax(hits, axis=1) + 1  # 1-based attempt index
            cost = np.where(any_hit, first * t_mo, m * t_mo + c_by)
            mc = float(cost.mean())
            got = expected_removal_cost(p, m, t_mo, c_by)
            assert got == pytest.approx(mc, rel=0.005)
    # closed-form anchor
    assert expected_removal_cost(0.5, 3, 10.0, 20.0) == pytest.approx(20.0)


# -- Beta quantiles vs sampling ------------------------------------------


def test_beta_quantiles_match_sampling():
    rng = np.random.default_rng(4)
    for a, b in [(1, 1), (9, 1), (2, 8), (50, 50)]:
        draws = rng.beta(a, b, 10_000_000)
        lo_mc, hi_mc = np.quantile(draws, [0.025, 0.975])
        assert beta_ppf(0.025, a, b) == pytest.approx(lo_mc, abs=0.005)
        assert beta_ppf(0.975, a, b) == pytest.approx(hi_mc, abs=0.005)


# -- measurement projection vs finite differences and sampling -----------


def _projection_mean(pose, d, phi):
    xr, yr, th = pose
    return np.array([xr + d * math.cos(th + phi), yr + d * math.sin(th + phi)])


def test_projected_covariance_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        pose = rng.uniform([-5, -5, -3], [5, 5, 3])
        d = rng.uniform(0.5, 6.0)
        phi = rng.uniform(-1.2, 1.2)
        cov_r = np.diag(rng.uniform(0.001, 0.02, 3))
        cov_y = np.diag(rng.uniform(0.001, 0.02, 2))
        j_r = np.empty((2, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            j_r[:, k] = (_projection_mean(pose + e, d, phi)
                         - _projection_mean(pose - e, d, phi)) / (2 * h)
        j_y = np.empty((2, 2))
        for k, (dd, dp) in enumerate([(h, 0.0), (0.0, h)]):
            j_y[:, k] = (_projection_mean(pose, d + dd, phi + dp)
                         - _projection_mean(pose, d - dd, phi - dp)) / (2 * h)
        fd_cov = j_r @ cov_r @ j_r.T + j_y @ cov_y @ j_y.T
        belief = project_measurement(
            RobotPoseBelief(pose, cov_r),
            RangeBearingMeasurement(d, phi, cov_y))
        assert np.max(np.abs(belief.cov - fd_cov)) <= 1e-6


def test_projected_covariance_matches_sampling():
    rng = np.random.default_rng(6)
    pose = np.array([1.0, -0.5, 0.7])
    d, phi = 3.0, 0.5
    cov_r = np.diag([0.0025, 0.0016, 0.0009])
    cov_y = np.diag([0.0016, 0.0009])
    n = 1_000_000
    poses = pose + rng.normal(size=(n, 3)) * np.sqrt(np.diag(cov_r))
    ds = d + rng.normal(size=n) * math.sqrt(cov_y[0, 0])
    phis = phi + rng.normal(size=n) * math.sqrt(cov_y[1, 1])
    ang = poses[:, 2] + phis
    pts = np.column_stack([poses[:, 0] + ds * np.cos(ang),
                           poses[:, 1] + ds * np.sin(ang)])
    mc_cov = np.cov(pts.T)
    belief = project_measurement(RobotPoseBelief(pose, cov_r),
                                 RangeBearingMeasurement(d, phi, cov_y))
    assert np.allclose(belief.cov, mc_cov, rtol=0.05)


# -- bypass-time predictor benchmark -------------------------------------


def test_regressor_beats_baselines_on_generated_benchmark():
    start = time.monotonic()
    cfg = _scenario("warehouse_abc")
    train, test = generate_bypass_benchmark(cfg, seed=0,
                                            n_train=1500, n_test=600)
    _, report = evaluate_bypass_predictors(train, test, v_max=cfg.robot.v_lin)
    for baseline in ("average-speed", "trapezoid"):
        assert report.median_ae["glr"] < report.median_ae[baseline]
        assert report.iqr_ae["glr"] < report.iqr_ae[baseline]
    assert time.monotonic() - start < 120.0


# -- unreliable removal: interval policy pays off ------------------------


def test_interval_policy_wins_when_removal_unreliable():
    start = time.monotonic()
    seeds = range(20)
    with_iv = _battery("warehouse_abc", "uncertainty", seeds,
                       estimated_sr=0.2, true_sr=0.2)
    without = _battery("warehouse_abc", "uncertainty-no-action", seeds,
                       estimated_sr=0.2, true_sr=0.2)
    assert _mean_elapsed(with_iv) < _mean_elapsed(without)

    # reliable removal: the point estimate commits to removal at the first
    # blocking obstacle while the interval policy still detours around it
    rec_without = _battery("warehouse_abc", "uncertainty-no-action", [0],
                           estimated_sr=0.9, true_sr=0.9)[0]
    rec_with = _battery("warehouse_abc", "uncertainty", [0],
                        estimated_sr=0.9, true_sr=0.9)[0]
    d_without = _first_decision(rec_without)
    d_with = _first_decision(rec_with)
    assert d_without["blocking_obstacle"] == "B"
    assert d_without["policy_choice"] == "remove"
    assert d_with["blocking_obstacle"] == "B"
    assert d_with["policy_choice"] == "bypass"
    assert time.monotonic() - start < 300.0


# -- biased success-rate estimates ---------------------------------------


def test_interval_policy_robust_to_biased_success_rates():
    pairs = [(0.9, 0.2), (0.9, 0.5), (0.5, 0.2),
             (0.5, 0.9), (0.2, 0.5), (0.2, 0.9)]
    seeds = range(10)
    with_all, without_all = [], []
    for estimated, real in pairs:
        with_all += _battery("warehouse_abc", "uncertainty", seeds,
                             estimated_sr=estimated, true_sr=real)
        without_all += _battery("warehouse_abc", "uncertainty-no-action",
                                seeds, estimated_sr=estimated, true_sr=real)
    assert _mean_elapsed(with_all) <= _mean_elapsed(without_all)


# -- blockage term changes the choice and saves time ---------------------


def test_blockage_awareness_changes_choice_and_saves_time():
    seeds = range(10)
    rec_with = _battery("warehouse_ab", "uncertainty", [0])[0]
    rec_without = _battery("warehouse_ab", "uncertainty-no-blockage", [0])[0]
    d_with = _first_decision(rec_with)
    d_without = _first_decision(rec_without)
    assert d_with["blocking_obstacle"] == "B"
    assert d_with["policy_choice"] == "remove"
    assert d_without["blocking_obstacle"] == "B"
    assert d_without["policy_choice"] == "bypass"

    ab_with = _battery("warehouse_ab", "uncertainty", seeds)
    ab_without = _battery("warehouse_ab", "uncertainty-no-blockage", seeds)
    abe_with = _battery("warehouse_abe", "uncertainty", seeds)
    abe_without = _battery("warehouse_abe", "uncertainty-no-blockage", seeds)
    assert _mean_elapsed(abe_with) < _mean_elapsed(abe_without)
    assert _mean_elapsed(ab_with + abe_with) < \
        _mean_elapsed(ab_without + abe_without)


# -- room scenario and overall success -----------------------------------


def test_room_requires_removal():
    seeds = range(10)
    for record in _battery("room", "priority-bypass", seeds):
        assert record.outcome == "timeout"
    for policy in ("uncertainty", "priority-removal"):
        for record in _battery("room", policy, seeds):
            assert record.outcome == "success"


def test_full_policy_always_succeeds_across_the_suite():
    records = []
    for name in WAREHOUSE_SUITE:
        records += _battery(name, "uncertainty", range(9))
    assert len(records) >= 50
    assert all(r.outcome == "success" for r in records)


# -- reproducibility -----------------------------------------------------


def test_records_reproducible():
    for name, policy in [("room", "uncertainty"),
                         ("warehouse_abc", "uncertainty"),
                         ("warehouse_abc", "random-choice")]:
        first = _battery(name, policy, [11])[0]
        second = _battery(name, policy, [11])[0]
        assert first.to_json_line() == second.to_json_line()


# -- property suites -----------------------------------------------------


def test_interval_algebra_properties():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = CostInterval(*np.sort(rng.uniform(0, 100, 2)))
        b = CostInterval(*np.sort(rng.uniform(0, 100, 2)))
        c = CostInterval(*np.sort(rng.uniform(0, 100, 2)))
        lam = float(rng.uniform(0, 10))
        assert a + b == b + a
        left, right = (a + b) + c, a + (b + c)
        assert left.lo == pytest.approx(right.lo)
        assert left.hi == pytest.approx(right.hi)
        s = a.scale(lam)
        assert s.lo == pytest.approx(lam * a.lo)
        assert s.hi == pytest.approx(lam * a.hi)
        assert (a + b).midpoint() == pytest.approx(a.midpoint() + b.midpoint())
        assert a.lo <= a.midpoint() <= a.hi


def test_midpoint_utility_is_uniform_mean():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        lo = rng.uniform(5.0, 100.0)
        hi = lo + rng.uniform(0.01, 0.6) * lo
        iv = CostInterval(lo, hi)
        mc = float(rng.uniform(lo, hi, 1_000_000).mean())
        assert iv.midpoint() == pytest.approx(mc, rel=1e-3)


def test_fusion_never_loosens_belief():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        prior = PoseBelief(rng.normal(size=2), a @ a.T + 1e-6 * np.eye(2))
        obs = PoseBelief(rng.normal(size=2), b @ b.T + 1e-6 * np.eye(2))
        fused = fuse(prior, obs)
        assert np.trace(fused.cov) <= min(np.trace(prior.cov),
                                          np.trace(obs.cov)) + 1e-9


def test_beta_intervals_nest():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        belief = BetaBelief(rng.uniform(0.5, 60), rng.uniform(0.5, 60))
        c1, c2 = np.sort(rng.uniform(0.05, 0.99, 2))
        if c2 - c1 < 1e-3:
            c2 = min(0.999, c1 + 1e-3)
        lo1, hi1 = success_rate_interval(belief, c1)
        lo2, hi2 = success_rate_interval(belief, c2)
        assert lo2 <= lo1 + 1e-9 and hi1 <= hi2 + 1e-9


def test_wider_corridors_block_less():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        mu = rng.uniform(0.2, 1.5)
        sigma = rng.uniform(0.01, mu / 7.0)
        pop = ObstaclePopulation(mu, sigma, 1.0, 100.0)
        w_small = mu + 6 * sigma + rng.uniform(0.05, 1.0)
        w_big = w_small + rng.uniform(0.05, 2.0)
        r = rng.uniform(0.05, 0.5)
        p_small = blockage_at_width(pop, w_small, r)
        p_big = blockage_at_width(pop, w_big, r)
        assert p_big <= p_small + 1e-9


def test_choice_invariant_under_cost_scaling():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        a = CostInterval(*np.sort(rng.uniform(0, 100, 2)))
        b = CostInterval(*np.sort(rng.uniform(0, 100, 2)))
        lam = float(rng.uniform(0.01, 50))
        assert decide(a, b)["choice"] == decide(a.scale(lam),
                                                b.scale(lam))["choice"]
