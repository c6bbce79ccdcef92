"""Bypass navigation-time prediction from trajectory features.

Bayesian linear regression with closed-form Gaussian predictive variance,
plus the two reference predictors (average speed, trapezoid profile).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .intervals import CostInterval
from .observation import turn_angles
from .planner import Trajectory


@dataclass(frozen=True)
class TrajectoryFeatures:
    """length (m), mean |heading change| (rad), population variance of it."""

    f_l: float
    f_s: float
    f_v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.f_l, self.f_s, self.f_v])


def extract_features(trajectory: Trajectory) -> TrajectoryFeatures:
    """Features of the trajectory, kept on it."""
    return trajectory.memoized("features", _features, trajectory)


def _features(trajectory: Trajectory) -> TrajectoryFeatures:
    if len(trajectory) < 2:
        raise ValueError("degenerate trajectory")
    deltas = turn_angles(trajectory.headings)
    return TrajectoryFeatures(
        f_l=trajectory.total_length,
        f_s=float(np.mean(deltas)),
        f_v=float(np.var(deltas)),
    )


# The columns of a timing CSV, in the order a dataset holds them.
_CSV_COLUMNS = ("F_l", "F_s", "F_v", "duration")


@dataclass
class TimingDataset:
    features: np.ndarray  # (n, 3) columns F_l, F_s, F_v
    durations: np.ndarray  # (n,)

    def __post_init__(self):
        """ValueError naming the first bad data row (counted from 1) unless
        every feature is finite and every duration finite and positive."""
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.durations = np.asarray(self.durations, dtype=float)
        if self.features.shape[0] != self.durations.shape[0]:
            raise ValueError("row count mismatch")
        bad = ~np.isfinite(self.features).all(axis=1)
        if bad.any():
            raise ValueError(f"data row {int(np.argmax(bad)) + 1}: "
                             "features must be finite")
        bad = ~(np.isfinite(self.durations) & (self.durations > 0))
        if bad.any():
            raise ValueError(f"data row {int(np.argmax(bad)) + 1}: "
                             "duration must be finite and positive")

    def __len__(self) -> int:
        return len(self.durations)

    @staticmethod
    def load_csv(path: str | Path) -> "TimingDataset":
        """The dataset of a CSV with a header naming `_CSV_COLUMNS` (others
        are ignored); ValueError naming the missing column or the data row
        (counted from 1) that lacks a number."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or ()
            missing = [c for c in _CSV_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
            rows = []
            for i, r in enumerate(reader, 1):
                try:
                    rows.append([float(r[c]) for c in _CSV_COLUMNS])
                except (TypeError, ValueError):  # a short row reads None
                    raise ValueError(f"{path}: data row {i} needs a number in "
                                     f"each of {', '.join(_CSV_COLUMNS)}") from None
        if not rows:
            raise ValueError("empty dataset")
        arr = np.array(rows)
        try:
            return TimingDataset(arr[:, :3], arr[:, 3])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class GlrModel:
    """Posterior over [bias, F_l, F_s, F_v] weights in standardized feature
    space, with observation noise variance."""

    w_mean: np.ndarray  # (4,)
    w_cov: np.ndarray  # 4x4
    noise_var: float
    feat_mean: np.ndarray  # (3,) standardization statistics
    feat_std: np.ndarray  # (3,)

    def _design(self, features: TrajectoryFeatures) -> np.ndarray:
        z = (features.as_array() - self.feat_mean) / self.feat_std
        return np.concatenate([[1.0], z])

    def predict(self, features: TrajectoryFeatures) -> tuple[float, float]:
        """Predictive mean and standard deviation."""
        x = self._design(features)
        mean = float(x @ self.w_mean)
        var = float(x @ self.w_cov @ x + self.noise_var)
        return mean, math.sqrt(var)

    def save(self, path: str | Path) -> None:
        lines = ["glr-model v1"]
        lines.append("w_mean " + " ".join(repr(float(v)) for v in self.w_mean))
        for row in self.w_cov:
            lines.append("w_cov_row " + " ".join(repr(float(v)) for v in row))
        lines.append(f"noise_var {float(self.noise_var)!r}")
        lines.append("feat_mean " + " ".join(repr(float(v)) for v in self.feat_mean))
        lines.append("feat_std " + " ".join(repr(float(v)) for v in self.feat_std))
        Path(path).write_text("\n".join(lines) + "\n")


# Variance of the isotropic Gaussian prior on the standardized weights.
_PRIOR_VAR = 100.0


def fit(dataset: TimingDataset) -> GlrModel:
    """Conjugate Bayesian linear regression on [1, z(F_l), z(F_s), z(F_v)].

    Features are z-scored with training statistics so the isotropic weight
    prior is meaningful. Noise variance comes from the OLS residuals.
    """
    if len(dataset) < 5:
        raise ValueError("need at least 5 rows")
    feat_mean = dataset.features.mean(axis=0)
    feat_std = dataset.features.std(axis=0)
    feat_std = np.where(feat_std < 1e-12, 1.0, feat_std)
    if np.all(dataset.features.std(axis=0) < 1e-12):
        raise ValueError("features are all identical")
    z = (dataset.features - feat_mean) / feat_std
    x = np.hstack([np.ones((len(dataset), 1)), z])
    y = dataset.durations

    w_ols, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ w_ols
    dof = max(len(dataset) - x.shape[1], 1)
    noise_var = max(float(resid @ resid) / dof, 1e-12)

    precision = np.eye(4) / _PRIOR_VAR + (x.T @ x) / noise_var
    w_cov = np.linalg.inv(precision)
    w_mean = w_cov @ (x.T @ y) / noise_var
    return GlrModel(w_mean, w_cov, noise_var, feat_mean, feat_std)


def predict_interval(model: GlrModel, features: TrajectoryFeatures,
                     confidence: float) -> CostInterval:
    """Central normal interval at `confidence`, mean +/- z sigma with z the
    (1 + confidence) / 2 quantile, floored at zero."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    mean, sigma = model.predict(features)
    half = float(ndtri((1.0 + confidence) / 2.0)) * sigma
    return CostInterval(max(0.0, mean - half), max(0.0, mean + half))


@dataclass
class AverageSpeedPredictor:
    """Predicts F_l / v_bar with v_bar the mean training speed."""

    v_bar: float

    def predict(self, features: TrajectoryFeatures) -> float:
        return features.f_l / self.v_bar


def baseline_average_speed(dataset: TimingDataset) -> AverageSpeedPredictor:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    speeds = dataset.features[:, 0] / dataset.durations
    return AverageSpeedPredictor(float(speeds.mean()))


@dataclass
class TrapezoidPredictor:
    """Single accelerate-cruise-decelerate profile over the path length."""

    v_max: float
    accel: float

    def __post_init__(self):
        if self.v_max <= 0 or self.accel <= 0:
            raise ValueError("v_max and accel must be positive")

    def predict(self, features: TrajectoryFeatures) -> float:
        d = features.f_l
        d_ramp = self.v_max ** 2 / self.accel  # accelerate + decelerate distance
        if d >= d_ramp:
            return d / self.v_max + self.v_max / self.accel
        return 2.0 * math.sqrt(d / self.accel)
