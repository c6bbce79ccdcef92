"""Trajectory features, the Bayesian time regressor, and both baselines."""

import csv
import math

import numpy as np
import pytest

import oracles
from namoplan import bypass
from namoplan.bypass import (AverageSpeedPredictor, TimingDataset,
                             TrajectoryFeatures, TrapezoidPredictor,
                             baseline_average_speed, extract_features, fit,
                             predict_interval)
from namoplan.planner import Trajectory
from namoplan.simulator import ScenarioConfig

CONFIDENCE = ScenarioConfig.confidence

# -- feature extraction -------------------------------------------------


def test_straight_path_features():
    t = Trajectory(np.array([[0.0, 0.0], [4.0, 0.0], [10.0, 0.0]]))
    f = extract_features(t)
    assert f.f_l == pytest.approx(10.0)
    assert f.f_s == 0.0
    assert f.f_v == 0.0


def test_square_wave_constant_deltas():
    # headings 0, pi/2, 0, pi/2, pi/2 -> absolute deltas pi/2 at each of the
    # three turns, then 0 into the last waypoint
    t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0],
                             [2.0, 2.0]]))
    f = extract_features(t)
    assert f.f_s == pytest.approx(3 * math.pi / 8)
    assert f.f_v == pytest.approx(3 * math.pi ** 2 / 64)


def test_mixed_deltas_mean_and_variance():
    # headings 0, pi/2, pi/2 -> deltas {pi/2, 0}
    t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    f = extract_features(t)
    assert f.f_s == pytest.approx(math.pi / 4)
    assert f.f_v == pytest.approx((math.pi / 4) ** 2)


def test_degenerate_trajectory_rejected():
    with pytest.raises(ValueError):
        Trajectory(np.array([[0.0, 0.0]]))


def test_features_invariant_under_rigid_motion():
    rng = np.random.default_rng(2)
    pts = np.cumsum(rng.normal(size=(12, 2)), axis=0)
    f0 = extract_features(Trajectory(pts))
    ang = 1.234
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    moved = pts @ rot.T + np.array([17.0, -4.0])
    f1 = extract_features(Trajectory(moved))
    assert f1.f_l == pytest.approx(f0.f_l, rel=1e-9)
    assert f1.f_s == pytest.approx(f0.f_s, rel=1e-9)
    assert f1.f_v == pytest.approx(f0.f_v, abs=1e-9)


# -- features kept on trajectories ----------------------------------------


def _uncached_features(traj):
    deltas = oracles.turn_angles(traj.headings)
    length = np.sum(np.linalg.norm(np.diff(traj.positions, axis=0), axis=1))
    return TrajectoryFeatures(float(length), float(np.mean(deltas)),
                              float(np.var(deltas)))


def test_features_match_uncached_and_are_computed_once(monkeypatch):
    computed = []
    real = bypass._features
    monkeypatch.setattr(bypass, "_features",
                        lambda t: computed.append(t) or real(t))
    rng = np.random.default_rng(41)
    trajectories = []
    for _ in range(30):
        pts = np.cumsum(rng.normal(size=(int(rng.integers(2, 60)), 2)), axis=0)
        trajectories.append(Trajectory(pts))
        for _ in range(2):
            want = _uncached_features(trajectories[-1])
            assert extract_features(trajectories[-1]) == want
            assert trajectories[-1].total_length == want.f_l
    assert computed == trajectories


# -- dataset ------------------------------------------------------------


def _synthetic_dataset(n, rng, noise=0.1, slope=2.0):
    f_l = rng.uniform(1.0, 30.0, n)
    f_s = rng.uniform(0.0, 1.2, n)
    f_v = rng.uniform(0.0, 0.5, n)
    dur = slope * f_l + 3.0 * f_s + rng.normal(0.0, noise, n)
    dur = np.maximum(dur, 0.1)
    return TimingDataset(np.column_stack([f_l, f_s, f_v]), dur)


def test_dataset_validation():
    with pytest.raises(ValueError):
        TimingDataset(np.ones((3, 3)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TimingDataset(np.ones((2, 3)), np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="data row 2: duration"):
        TimingDataset(np.ones((2, 3)), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="data row 1: features"):
        TimingDataset(np.array([[1.0, -np.inf, 0.0], [1.0, 0.0, 0.0]]),
                      np.ones(2))


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    ds = _synthetic_dataset(20, rng)
    path = tmp_path / "timing.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["F_l", "F_s", "F_v", "duration"])
        for row, dur in zip(ds.features, ds.durations):
            writer.writerow([repr(float(v)) for v in (*row, dur)])
    loaded = TimingDataset.load_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.durations, ds.durations)


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("F_l,F_s,F_v,duration\n")
    with pytest.raises(ValueError):
        TimingDataset.load_csv(path)


# -- regression ---------------------------------------------------------


def test_fit_recovers_known_slope():
    rng = np.random.default_rng(1)
    ds = _synthetic_dataset(1000, rng, noise=0.1)
    model = fit(ds)
    # weight is in standardized space: scale back by the feature std
    w_fl = model.w_mean[1] / model.feat_std[0]
    assert 1.9 <= w_fl <= 2.1


def test_fit_needs_rows_and_variation():
    rng = np.random.default_rng(2)
    small = _synthetic_dataset(4, rng)
    with pytest.raises(ValueError):
        fit(small)
    flat = TimingDataset(np.tile([3.0, 0.1, 0.0], (10, 1)), np.full(10, 6.0))
    with pytest.raises(ValueError):
        fit(flat)


def test_fit_with_one_constant_column():
    rng = np.random.default_rng(3)
    ds = _synthetic_dataset(100, rng)
    ds.features[:, 2] = 0.25  # constant third feature
    model = fit(TimingDataset(ds.features, ds.durations))
    mean, sigma = model.predict(TrajectoryFeatures(10.0, 0.5, 0.25))
    assert math.isfinite(mean) and sigma > 0


def test_doubling_durations_doubles_prediction():
    rng = np.random.default_rng(4)
    ds = _synthetic_dataset(300, rng)
    m1 = fit(ds)
    m2 = fit(TimingDataset(ds.features, 2.0 * ds.durations))
    q = TrajectoryFeatures(12.0, 0.4, 0.1)
    # the fixed weight prior breaks exact linearity; data dominates here
    assert m2.predict(q)[0] == pytest.approx(2.0 * m1.predict(q)[0], rel=1e-4)


def test_predictive_variance_floor_at_centroid():
    rng = np.random.default_rng(5)
    ds = _synthetic_dataset(400, rng)
    model = fit(ds)
    centroid = TrajectoryFeatures(*ds.features.mean(axis=0))
    _, sigma = model.predict(centroid)
    assert sigma ** 2 >= model.noise_var


def test_predictive_variance_grows_from_centroid():
    rng = np.random.default_rng(6)
    ds = _synthetic_dataset(400, rng)
    model = fit(ds)
    center = ds.features.mean(axis=0)
    direction = np.array([1.0, 0.05, 0.02])
    sigmas = [model.predict(TrajectoryFeatures(*(center + t * direction)))[1]
              for t in (0.0, 5.0, 15.0, 40.0)]
    assert sigmas == sorted(sigmas)


def test_interval_centered_and_clamped():
    rng = np.random.default_rng(7)
    ds = _synthetic_dataset(200, rng)
    model = fit(ds)
    q = TrajectoryFeatures(10.0, 0.3, 0.05)
    mean, sigma = model.predict(q)
    # z is the (1 + confidence) / 2 standard-normal quantile
    for confidence, z in [(0.5, 0.6744897501960817), (0.95, 1.959963984540054),
                          (0.99, 2.5758293035489004)]:
        iv = predict_interval(model, q, confidence)
        assert iv.lo == pytest.approx(max(0.0, mean - z * sigma))
        assert iv.hi == pytest.approx(mean + z * sigma)
    tiny = predict_interval(model, TrajectoryFeatures(0.0, 0.0, 0.0), CONFIDENCE)
    assert tiny.lo >= 0.0


def test_intervals_nest_across_confidences():
    rng = np.random.default_rng(9)
    model = fit(_synthetic_dataset(200, rng))
    for row in rng.uniform([0.0, 0.0, 0.0], [30.0, 3.0, 0.5], size=(50, 3)):
        q = TrajectoryFeatures(*row)
        ivs = [predict_interval(model, q, c) for c in (0.5, 0.95, 0.99)]
        for inner, outer in zip(ivs, ivs[1:]):
            assert outer.lo <= inner.lo and inner.hi < outer.hi


def test_interval_coverage_on_synthetic_data():
    rng = np.random.default_rng(8)
    train = _synthetic_dataset(1500, rng, noise=0.5)
    test = _synthetic_dataset(2000, rng, noise=0.5)
    model = fit(train)
    hits = 0
    for row, dur in zip(test.features, test.durations):
        iv = predict_interval(model, TrajectoryFeatures(*row), CONFIDENCE)
        hits += iv.lo <= dur <= iv.hi
    coverage = hits / len(test)
    assert 0.92 <= coverage <= 0.98


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    model = fit(_synthetic_dataset(100, rng))
    path = tmp_path / "model.txt"
    model.save(path)
    loaded = oracles.load_glr_model(path)
    q = TrajectoryFeatures(7.0, 0.2, 0.04)
    assert loaded.predict(q) == model.predict(q)


def test_model_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        oracles.load_glr_model(path)


# -- baselines ----------------------------------------------------------


def test_average_speed_exact_on_constant_speed():
    f_l = np.array([2.0, 6.0, 10.0])
    ds = TimingDataset(np.column_stack([f_l, np.zeros(3), np.zeros(3)]),
                       f_l / 0.5)
    pred = baseline_average_speed(ds)
    assert pred.v_bar == pytest.approx(0.5)
    assert pred.predict(TrajectoryFeatures(8.0, 0.0, 0.0)) == pytest.approx(16.0)


def test_trapezoid_cruise_and_triangular():
    trap = TrapezoidPredictor(v_max=1.0, accel=0.5)
    # long: reaches cruise; d_ramp = v^2/a = 2
    assert trap.predict(TrajectoryFeatures(10.0, 0, 0)) == pytest.approx(
        10.0 / 1.0 + 1.0 / 0.5)
    # short: triangular profile
    assert trap.predict(TrajectoryFeatures(1.0, 0, 0)) == pytest.approx(
        2.0 * math.sqrt(1.0 / 0.5))


def test_trapezoid_validation():
    with pytest.raises(ValueError):
        TrapezoidPredictor(0.0, 1.0)
