"""Movable-obstacle pose estimation from range-bearing measurements.

Covariance propagation through the measurement geometry, static-state Kalman
fusion of repeated observations, confidence-ellipse extraction, and the
path-blockage test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .planner import Ellipse


class InvalidCovariance(ValueError):
    pass


def _surely_psd(cov: np.ndarray) -> bool:
    """Closed-form accept for small covariances: True only where the
    `allclose` and `eigvalsh` checks are sure to accept too. The matrix must
    be finite, exactly symmetric and no entry above 1 in magnitude, so that
    `eigvalsh`'s backward error keeps a PSD matrix's eigenvalues far above
    -1e-12. A 2x2 must be PSD by a relative margin that rounding cannot
    undo, a 3x3 diagonal with non-negative entries. Comparisons with NaN
    are false, so NaN and inf never pass."""
    if cov.shape == (2, 2):
        (a, b), (c, d) = cov.tolist()
        return (b == c and 0.0 <= a <= 1.0 and 0.0 <= d <= 1.0
                and -1.0 <= b <= 1.0
                and (b == 0.0 or a * d - b * b >= 1e-9 * (a * d + b * b)))
    if cov.shape == (3, 3):
        (a, b, c), (d, e, f), (g, h, i) = cov.tolist()
        return (b == c == d == f == g == h == 0.0
                and 0.0 <= a <= 1.0 and 0.0 <= e <= 1.0 and 0.0 <= i <= 1.0)
    return False


# A covariance may have eigenvalues down to -_PSD_TOL, for rounding.
_PSD_TOL = 1e-12


def _check_psd(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if _surely_psd(cov):
        return cov
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise InvalidCovariance("invalid covariance: not symmetric")
    if np.min(np.linalg.eigvalsh(cov)) < -_PSD_TOL:
        raise InvalidCovariance("invalid covariance: negative eigenvalue")
    return cov


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(a, 2.0 * math.pi)
    return math.pi if w <= -math.pi else w


def turn_angles(headings: np.ndarray) -> np.ndarray:
    """|wrap_angle(b - a)| of each pair of successive headings in
    [-pi, pi], such as a trajectory's, bit for bit.

    Their changes d lie in [-2 pi, 2 pi], where the IEEE remainder is d
    itself, d - 2 pi or d + 2 pi, and the shifted differences are exact
    (Sterbenz), so the array form equals the scalar one."""
    d = np.diff(headings)
    tau = 2.0 * math.pi
    return np.abs(np.where(d > math.pi, d - tau,
                           np.where(d < -math.pi, d + tau, d)))


@dataclass
class RobotPoseBelief:
    mean: np.ndarray  # (x_r, y_r, theta_r)
    cov: np.ndarray  # 3x3

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = _check_psd(self.cov)


@dataclass
class RangeBearingMeasurement:
    d: float
    phi: float
    cov: np.ndarray  # 2x2

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("range must be positive")
        self.cov = _check_psd(self.cov)


@dataclass
class PoseBelief:
    mean: np.ndarray  # (x, y)
    cov: np.ndarray  # 2x2

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = _check_psd(self.cov)


def project_measurement(robot: RobotPoseBelief,
                        meas: RangeBearingMeasurement) -> PoseBelief:
    """Obstacle position belief from a range-bearing measurement.

    Mean: (x_r + d cos(theta_r + phi), y_r + d sin(theta_r + phi)).
    Covariance: first-order propagation through both Jacobians.
    """
    xr, yr, th = robot.mean
    ang = wrap_angle(th + meas.phi)
    c, s = math.cos(ang), math.sin(ang)
    d = meas.d
    mean = np.array([xr + d * c, yr + d * s])
    j_r = np.array([[1.0, 0.0, -d * s],
                    [0.0, 1.0, d * c]])
    j_y = np.array([[c, -d * s],
                    [s, d * c]])
    cov = j_r @ robot.cov @ j_r.T + j_y @ meas.cov @ j_y.T
    cov = 0.5 * (cov + cov.T)
    return PoseBelief(mean, cov)


def fuse(prior: PoseBelief, obs: PoseBelief) -> PoseBelief:
    """Static-state Kalman update (identity transition and observation)."""
    s = prior.cov + obs.cov
    if np.trace(s) < 1e-12:
        if np.linalg.norm(prior.mean - obs.mean) > 1e-9:
            raise ValueError("inconsistent noiseless observations")
        return PoseBelief(prior.mean.copy(), prior.cov.copy())
    gain = prior.cov @ np.linalg.inv(s)
    mean = prior.mean + gain @ (obs.mean - prior.mean)
    cov = (np.eye(2) - gain) @ prior.cov
    cov = 0.5 * (cov + cov.T)
    # Numerical guard: fusion can only tighten the belief.
    cov = np.where(np.eye(2, dtype=bool), np.maximum(cov.diagonal(), 0.0), cov)
    return PoseBelief(mean, cov)


def confidence_ellipse(belief: PoseBelief, mo_radius: float,
                       confidence: float) -> Ellipse:
    """Belief region at the given confidence, grown by the obstacle radius."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    # chi2.ppf(confidence, df=2): the chi-square law with two degrees of
    # freedom is exponential with mean 2, so its quantile is closed-form.
    quantile = -2.0 * math.log1p(-confidence)
    vals, vecs = np.linalg.eigh(belief.cov)
    vals = np.maximum(vals, 0.0)
    # eigh returns ascending order; major axis last.
    a = math.sqrt(vals[1] * quantile) + mo_radius
    b = math.sqrt(vals[0] * quantile) + mo_radius
    angle = math.atan2(vecs[1, 1], vecs[0, 1])
    return Ellipse(belief.mean[0], belief.mean[1], a, b, angle)


def path_blocked(positions: np.ndarray, obstacles: list[tuple[str, Ellipse]],
                 robot_radius: float) -> str | None:
    """First obstacle (by path order) whose confidence ellipse, inflated by
    the robot radius, touches one of the (N, 2) waypoints. `obstacles` pairs
    each label with its ellipse. Closed-set convention: grazing contact
    counts as blocked. Of two obstacles first touched at the same waypoint,
    the one earlier in `obstacles` counts."""
    xs, ys = positions[:, 0], positions[:, 1]
    blocker, first = None, len(positions)
    for label, e in obstacles:
        hits = np.flatnonzero(e.contains(xs, ys, margin=robot_radius))
        if hits.size and hits[0] < first:
            blocker, first = label, hits[0]
    return blocker
