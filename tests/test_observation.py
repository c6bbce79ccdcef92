"""Pose-belief propagation, fusion, confidence ellipses, path blockage."""

import math

import numpy as np
import pytest

import oracles
from namoplan import observation
from namoplan.observation import (InvalidCovariance, PoseBelief,
                                  RangeBearingMeasurement, RobotPoseBelief,
                                  confidence_ellipse, fuse, path_blocked,
                                  project_measurement, turn_angles, wrap_angle)
from namoplan.planner import Trajectory
from namoplan.simulator import ScenarioConfig

CONFIDENCE = ScenarioConfig.confidence


def _robot(x=0.0, y=0.0, th=0.0, cov=None):
    return RobotPoseBelief(np.array([x, y, th]),
                           np.zeros((3, 3)) if cov is None else cov)


def _meas(d, phi, cov=None):
    return RangeBearingMeasurement(d, phi,
                                   np.zeros((2, 2)) if cov is None else cov)


# -- angle wrapping -----------------------------------------------------


@pytest.mark.parametrize("a,expected", [
    (0.0, 0.0),
    (3 * math.pi, math.pi),
    (-math.pi, math.pi),  # boundary maps to +pi
    (math.pi + 0.1, -math.pi + 0.1),
])
def test_wrap_angle(a, expected):
    assert wrap_angle(a) == pytest.approx(expected)


def _heading_cases(rng):
    """Heading sequences in [-pi, pi], as a trajectory's: atan2 outputs,
    planned-path steps, and changes of exactly and a hair around +-pi and
    +-2 pi."""
    pi = math.pi
    yield rng.uniform(-pi, pi, 500)
    yield np.arctan2(*rng.integers(-1, 2, (2, 500)).astype(float))
    yield np.array([pi, -pi, pi, 0.0, -pi, -0.0, 0.0, -pi, pi])
    starts = np.array([-pi, -1.25, -0.5, 0.0, 0.5, 1.25, pi])
    for change in (pi, -pi, 2.0 * pi, -2.0 * pi):
        ends = starts + change
        for end in (ends, np.nextafter(ends, np.inf),
                    np.nextafter(ends, -np.inf)):
            keep = np.abs(end) <= pi
            if keep.any():
                yield np.ravel(np.column_stack([starts[keep], end[keep]]))


def test_turn_angles_match_wrap_angle_bit_for_bit():
    rng = np.random.default_rng(12)
    for h in _heading_cases(rng):
        got, want = turn_angles(h), oracles.turn_angles(h)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- measurement projection ---------------------------------------------


def test_projection_noiseless_identity():
    b = project_measurement(_robot(), _meas(1.0, 0.0))
    assert b.mean == pytest.approx([1.0, 0.0])
    assert np.allclose(b.cov, 0.0)


def test_projection_side_measurement_covariance():
    b = project_measurement(_robot(), _meas(2.0, math.pi / 2,
                                            np.diag([0.01, 0.01])))
    assert b.mean == pytest.approx([0.0, 2.0], abs=1e-12)
    assert b.cov == pytest.approx(np.diag([0.04, 0.01]), abs=1e-12)


def test_projection_jacobians_match_finite_differences():
    rng = np.random.default_rng(11)
    eps = 1e-6

    def mean_of(xr, yr, th, d, phi):
        return np.array([xr + d * math.cos(th + phi),
                         yr + d * math.sin(th + phi)])

    for _ in range(100):
        xr, yr = rng.uniform(-5, 5, 2)
        th, phi = rng.uniform(-math.pi, math.pi, 2)
        d = rng.uniform(0.2, 8.0)
        base = np.array([xr, yr, th, d, phi])
        jac = np.zeros((2, 5))
        for k in range(5):
            hi, lo = base.copy(), base.copy()
            hi[k] += eps
            lo[k] -= eps
            jac[:, k] = (mean_of(*hi) - mean_of(*lo)) / (2 * eps)
        ang = th + phi
        c, s = math.cos(ang), math.sin(ang)
        j_r = np.array([[1.0, 0.0, -d * s], [0.0, 1.0, d * c]])
        j_y = np.array([[c, -d * s], [s, d * c]])
        assert np.max(np.abs(jac[:, :3] - j_r)) <= 1e-6
        assert np.max(np.abs(jac[:, 3:] - j_y)) <= 1e-6


def test_projection_covariance_matches_monte_carlo():
    rng = np.random.default_rng(3)
    n = 1_000_000
    # geometry with nonzero correlation in every covariance entry
    robot_cov = np.diag([0.0025, 0.0016, 0.0009])
    meas_cov = np.diag([0.0016, 0.0009])
    xr, yr, th, d, phi = 1.0, -0.5, 0.7, 3.0, 0.5
    belief = project_measurement(
        RobotPoseBelief(np.array([xr, yr, th]), robot_cov),
        RangeBearingMeasurement(d, phi, meas_cov))
    draws_r = rng.multivariate_normal([xr, yr, th], robot_cov, n)
    draws_y = rng.multivariate_normal([d, phi], meas_cov, n)
    ang = draws_r[:, 2] + draws_y[:, 1]
    pts = np.column_stack([draws_r[:, 0] + draws_y[:, 0] * np.cos(ang),
                           draws_r[:, 1] + draws_y[:, 0] * np.sin(ang)])
    mc_cov = np.cov(pts.T)
    assert np.all(np.abs(mc_cov - belief.cov) <= 0.05 * np.abs(mc_cov))


def test_projection_rejects_invalid_covariance():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(InvalidCovariance):
        RangeBearingMeasurement(1.0, 0.0, bad)
    neg = np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidCovariance):
        RangeBearingMeasurement(1.0, 0.0, neg)


def test_nonpositive_range_rejected():
    with pytest.raises(ValueError):
        _meas(0.0, 0.0)


# -- covariance check, pinned to the allclose/eigvalsh reference ----------


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _covariance_cases(rng):
    """2x2 and 3x3 matrices on both sides of every accept/reject edge."""
    for n in (2, 3):
        for scale in (1e-9, 1e-3, 0.1, 1.0, 10.0, 1e6, 1e300):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            cov = q @ np.diag(rng.uniform(0.0, scale, n)) @ q.T
            yield cov  # PSD, symmetric up to rounding
            yield 0.5 * (cov + cov.T)  # exactly symmetric
            v = rng.normal(size=n) * math.sqrt(scale)
            yield np.outer(v, v)  # rank one
            yield np.diag(rng.uniform(0.0, scale, n))
            yield np.diag(rng.uniform(-0.1, 1.0, n) * scale)
            yield -0.5 * (cov + cov.T)
        sym = 0.5 * (cov + cov.T)
        sym = sym / np.max(np.abs(sym))
        for off in (1e-10, 1e-3):  # inside and beyond allclose's atol
            bad = sym.copy()
            bad[0, 1] += off
            yield bad
        for value in (np.nan, np.inf, -np.inf):
            for i, j in ((0, 0), (0, 1), (1, 0)):
                bad = np.eye(n) * 0.5
                bad[i, j] = value
                yield bad
                if i != j:
                    bad[j, i] = value
                    yield bad
        for k in range(n):
            for neg in (-1e-13, -1e-11, -0.3):  # within, beyond tolerance
                diag = np.full(n, 0.5)
                diag[k] = neg
                yield np.diag(diag)
        yield np.diag([-0.0, 0.0, 1.0][:n])
        for _ in range(50):
            # symmetric, diagonal non-negative, often indefinite
            m = rng.uniform(-1.0, 1.0, (n, n))
            m = 0.5 * (m + m.T)
            np.fill_diagonal(m, np.abs(m.diagonal()))
            yield m
    for _ in range(200):
        # determinant around +-1e-13, eigenvalue near -1e-12 at the edge
        a = rng.uniform(1e-3, 1.0)
        b = rng.uniform(-1.0, 1.0) * a
        det = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0) * 1e-13
        yield np.array([[a, b], [b, (b * b + det) / a]])
        yield np.array([[0.0, b], [b, 0.0]])
    for _ in range(100):
        # the projected and fused beliefs the episodes build
        robot = _robot(*rng.uniform(-5.0, 5.0, 3),
                       cov=np.diag(rng.uniform(0.0, 0.01, 3)))
        meas = _meas(rng.uniform(0.1, 5.0), rng.uniform(-1.0, 1.0),
                     np.diag(rng.uniform(0.0, 0.01, 2)))
        b1 = project_measurement(robot, meas)
        b2 = project_measurement(robot, meas)
        yield b1.cov
        yield fuse(b1, b2).cov


def _psd_outcome(check, cov):
    try:
        out = check(cov)
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", out.shape, out.tobytes()


def test_check_psd_matches_reference():
    fast, outcomes = [], []
    for cov in _covariance_cases(np.random.default_rng(13)):
        got = _psd_outcome(observation._check_psd, cov)
        assert got == _psd_outcome(oracles.check_psd, cov), cov
        fast.append(observation._surely_psd(np.asarray(cov, dtype=float)))
        outcomes.append(got[0] if got[0] == "ok" else got[1])
    # Both paths are taken, and the slow one accepts some matrices too.
    assert sum(fast) >= 200 and outcomes.count("ok") >= sum(fast) + 50
    assert {"invalid covariance: not symmetric",
            "invalid covariance: negative eigenvalue"} <= set(outcomes)


# -- fusion -------------------------------------------------------------


def test_fuse_balanced():
    m = np.array([2.0, 3.0])
    a = PoseBelief(m, 0.04 * np.eye(2))
    b = PoseBelief(m.copy(), 0.04 * np.eye(2))
    f = fuse(a, b)
    assert f.mean == pytest.approx(m)
    assert f.cov == pytest.approx(0.02 * np.eye(2))


def test_fuse_uninformative_prior():
    prior = PoseBelief(np.array([100.0, -100.0]), 1e6 * np.eye(2))
    obs = PoseBelief(np.array([1.0, 2.0]), 0.01 * np.eye(2))
    f = fuse(prior, obs)
    assert np.max(np.abs(f.mean - obs.mean)) < 1e-3
    assert np.max(np.abs(f.cov - obs.cov)) < 1e-3 * np.max(obs.cov)


def test_fuse_sequential_averages():
    sigma2 = 0.09
    belief = PoseBelief(np.array([0.0, 0.0]), sigma2 * np.eye(2))
    for _ in range(1, 8):
        belief = fuse(belief, PoseBelief(np.array([0.0, 0.0]), sigma2 * np.eye(2)))
    assert belief.cov == pytest.approx(sigma2 / 8 * np.eye(2), rel=1e-9)


def test_fuse_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m1, m2 = rng.normal(size=(2, 2))
        r1 = rng.normal(size=(2, 2))
        r2 = rng.normal(size=(2, 2))
        c1 = r1 @ r1.T + 0.01 * np.eye(2)
        c2 = r2 @ r2.T + 0.01 * np.eye(2)
        f12 = fuse(PoseBelief(m1, c1), PoseBelief(m2, c2))
        f21 = fuse(PoseBelief(m2, c2), PoseBelief(m1, c1))
        assert np.max(np.abs(f12.mean - f21.mean)) < 1e-9
        assert np.max(np.abs(f12.cov - f21.cov)) < 1e-9


def test_fuse_conflicting_noiseless_rejected():
    a = PoseBelief(np.array([0.0, 0.0]), np.zeros((2, 2)))
    b = PoseBelief(np.array([1.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fuse(a, b)


# -- confidence ellipse -------------------------------------------------


def test_ellipse_isotropic():
    e = confidence_ellipse(PoseBelief(np.array([1.0, 2.0]), 0.04 * np.eye(2)),
                           mo_radius=0.3, confidence=0.95)
    expected = 0.2 * math.sqrt(5.991) + 0.3
    assert e.a == pytest.approx(expected, abs=1e-3)
    assert e.b == pytest.approx(expected, abs=1e-3)
    assert (e.cx, e.cy) == (1.0, 2.0)


def test_ellipse_zero_covariance():
    e = confidence_ellipse(PoseBelief(np.array([0.0, 0.0]), np.zeros((2, 2))),
                           mo_radius=0.25, confidence=CONFIDENCE)
    assert e.a == pytest.approx(0.25)
    assert e.b == pytest.approx(0.25)


def test_ellipse_diagonal_axes():
    e = confidence_ellipse(PoseBelief(np.array([0.0, 0.0]),
                                      np.diag([0.04, 0.01])),
                           mo_radius=0.3, confidence=0.95)
    assert e.a == pytest.approx(0.2 * math.sqrt(5.991) + 0.3, abs=1e-3)
    assert e.b == pytest.approx(0.1 * math.sqrt(5.991) + 0.3, abs=1e-3)
    # major axis along x
    assert abs(wrap_angle(e.angle)) in (pytest.approx(0.0, abs=1e-9),
                                        pytest.approx(math.pi, abs=1e-9))


def test_ellipse_area_monotone_in_confidence():
    belief = PoseBelief(np.array([0.0, 0.0]), np.diag([0.03, 0.01]))
    areas = []
    for c in (0.5, 0.8, 0.95, 0.99):
        e = confidence_ellipse(belief, 0.2, c)
        areas.append(e.a * e.b)
    assert areas == sorted(areas)


def test_ellipse_axes_use_the_chi2_quantile():
    from scipy.stats import chi2

    rng = np.random.default_rng(41)
    for confidence in (0.5, 0.9, 0.95, 0.99, 0.999, *rng.uniform(0.01, 0.99, 20)):
        root = rng.normal(size=(2, 2))
        cov = root @ root.T * 0.05
        e = confidence_ellipse(PoseBelief(np.array([1.0, 2.0]), cov), 0.3,
                               confidence)
        # chi2(2) is exponential with mean 2: its quantile is closed-form.
        # It is within 2 ulp of scipy's at the named confidences; elsewhere
        # scipy's own error reaches about 11 ulp of the exact value.
        q = -2.0 * math.log1p(-confidence)
        bound = 2 if confidence in (0.5, 0.9, 0.95, 0.99, 0.999) else 16
        assert abs(q - chi2.ppf(confidence, df=2)) <= bound * math.ulp(q)
        vals = np.linalg.eigh(cov)[0]
        assert e.a == math.sqrt(vals[1] * q) + 0.3
        assert e.b == math.sqrt(vals[0] * q) + 0.3


def test_ellipse_invalid_confidence():
    with pytest.raises(ValueError):
        confidence_ellipse(PoseBelief(np.zeros(2), np.eye(2)), 0.1, 1.0)


# -- path blockage ------------------------------------------------------


def _mo(x, y, radius=0.3, var=0.0):
    """A (label, belief, radius) triple."""
    return "m", PoseBelief(np.array([x, y]), var * np.eye(2)), radius


def _pairs(mos, confidence=0.95):
    """(label, confidence ellipse) pairs, as `path_blocked` takes them."""
    return [(label, confidence_ellipse(belief, radius, confidence))
            for label, belief, radius in mos]


def test_far_obstacle_does_not_block():
    traj = Trajectory(np.array([[0.0, 0.0], [5.0, 0.0]]))
    assert path_blocked(traj.positions, _pairs([_mo(2.5, 3.0)]), robot_radius=0.3) is None


def test_obstacle_on_waypoint_blocks():
    traj = Trajectory(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    assert path_blocked(traj.positions, _pairs([_mo(2.0, 0.0)]), robot_radius=0.3) == "m"


def test_grazing_contact_counts_as_blocked():
    # ellipse radius exactly mo_radius; waypoint at distance radius + robot
    traj = Trajectory(np.array([[0.0, 0.6], [1.0, 0.6]]))
    assert path_blocked(traj.positions, _pairs([_mo(0.0, 0.0, radius=0.3)]),
                        robot_radius=0.3) == "m"
    # one millimeter farther: clear
    traj2 = Trajectory(np.array([[0.0, 0.601], [1.0, 0.601]]))
    assert path_blocked(traj2.positions, _pairs([_mo(0.0, 0.0, radius=0.3)]),
                        robot_radius=0.3) is None


def test_first_blocker_by_path_order():
    traj = Trajectory(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    near = ("near", PoseBelief(np.array([2.0, 0.0]), np.zeros((2, 2))), 0.3)
    far = ("far", PoseBelief(np.array([4.0, 0.0]), np.zeros((2, 2))), 0.3)
    assert path_blocked(traj.positions, _pairs([far, near]), robot_radius=0.2) == "near"


# -- pinned to the per-waypoint reference loop ----------------------------


def _belief(rng, mean, zero=False):
    """A belief at `mean` with a random rotated covariance, or none."""
    if zero:
        return PoseBelief(np.asarray(mean), np.zeros((2, 2)))
    t = rng.uniform(-math.pi, math.pi)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    cov = rot @ np.diag(rng.uniform(0.0, 0.05, 2)) @ rot.T
    return PoseBelief(np.asarray(mean), 0.5 * (cov + cov.T))


def test_path_blocked_matches_reference_on_random_paths():
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(2, 80))
        pts = np.cumsum(rng.normal(0.0, 0.15, (n, 2)), axis=0)
        mos = [(f"m{k}", _belief(rng, pts[rng.integers(n)]
                                 + rng.normal(0.0, 0.6, 2),
                                 zero=rng.random() < 0.3),
                rng.uniform(0.1, 0.4))
               for k in range(int(rng.integers(0, 5)))]
        traj = Trajectory(pts)
        r = rng.uniform(0.1, 0.3)
        conf = rng.choice([0.5, 0.95, 0.99])
        got = path_blocked(traj.positions, _pairs(mos, conf), r)
        assert got == oracles.path_blocked(traj.positions, mos, r, conf)
        outcomes.add("none" if got is None else
                     "first" if got == mos[0][0] else "later")
    assert outcomes == {"none", "first", "later"}


def test_path_blocked_matches_reference_on_ellipse_boundaries():
    # Waypoints on, and a hair either side of, the rims of rotated ellipses
    # and of zero-covariance (circular) ones: grazing contact decides.
    rng = np.random.default_rng(42)
    for zero in (True, False):
        for _ in range(40):
            mo = ("m", _belief(rng, rng.uniform(-2, 2, 2), zero),
                  rng.uniform(0.1, 0.4))
            r = 0.2
            e = confidence_ellipse(*mo[1:], CONFIDENCE).inflate(r)
            t = rng.uniform(-math.pi, math.pi, 50)
            rim = np.column_stack([
                e.cx + e.a * np.cos(t) * math.cos(e.angle)
                - e.b * np.sin(t) * math.sin(e.angle),
                e.cy + e.a * np.cos(t) * math.sin(e.angle)
                + e.b * np.sin(t) * math.cos(e.angle)])
            for pts in (rim, np.nextafter(rim, np.inf), np.nextafter(rim, -np.inf)):
                for pt in pts:
                    traj = Trajectory(np.array([[e.cx + 9.0, e.cy], pt]))
                    assert path_blocked(traj.positions, _pairs([mo]), r) == \
                        oracles.path_blocked(traj.positions, [mo], r)


def test_same_waypoint_tie_goes_to_the_earlier_obstacle():
    # Both obstacles are first touched at waypoint 1; the list order decides.
    traj = Trajectory(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    above = ("above", PoseBelief(np.array([2.0, 0.4]), np.zeros((2, 2))), 0.3)
    below = ("below", PoseBelief(np.array([2.0, -0.4]), 0.01 * np.eye(2)), 0.3)
    for mos in ([above, below], [below, above]):
        assert path_blocked(traj.positions, _pairs(mos), 0.2) == mos[0][0]
        assert oracles.path_blocked(traj.positions, mos, 0.2) == mos[0][0]
