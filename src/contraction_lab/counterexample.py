"""A planar system that is globally exponentially stable yet fails to
entrain: construction and certification.

The unforced dynamics are, in polar coordinates, r' = f(r) = -r + (r/2)sin(r^2)
and theta' = 1.  Since f(r) <= -r/2 for every nonnegative r, the origin is
globally exponentially stable at rate 1/2.  Forcing the system with the
rotating input u(t) = -f(rc) (cos t, sin t), where rc is a strict local
maximizer of f, turns the circle of radius rc into an exact periodic
trajectory that repels nearby interior points, so no unique attracting limit
cycle exists.

This module finds the smallest such radius, builds the forced system, and
certifies each step of that argument numerically; in the frame that turns
with the input the forced system is autonomous (``rotating_frame_counterexample``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .certificates import Certificate, JsonRecord
from .dynamics import ConstantInput, IntegratorConfig, PeriodicInput, VectorField, integrate
from .errors import NoRootFoundError, NonFiniteError
from .linalg import _float_if_scalar

__all__ = [
    "radial_f",
    "radial_f_slope",
    "second_order_value",
    "RStarCertificate",
    "find_r_star",
    "circle_field",
    "build_counterexample",
    "rotating_frame_counterexample",
    "circle_orbit_residual",
    "verify_ges",
    "polar_equivalence_check",
    "random_initial_conditions",
]

TWO_PI = 2.0 * np.pi


def radial_f(r):
    """Radial drift f(r) = -r + (r/2) sin(r^2)."""
    r = np.asarray(r, dtype=float)
    return _float_if_scalar(-r + 0.5 * r * np.sin(r * r))


def radial_f_slope(r):
    """f'(r) = sin(r^2)/2 + r^2 cos(r^2) - 1; zero at stationary radii."""
    r = np.asarray(r, dtype=float)
    return _float_if_scalar(0.5 * np.sin(r * r) + r * r * np.cos(r * r) - 1.0)


def second_order_value(r):
    """f''(r) = 3r cos(r^2) - 2r^3 sin(r^2); negative at a strict local maximum."""
    r = np.asarray(r, dtype=float)
    return _float_if_scalar(3.0 * r * np.cos(r * r) - 2.0 * r**3 * np.sin(r * r))


@dataclass(frozen=True)
class RStarCertificate(JsonRecord):
    """Certified strict local maximizer of the radial drift.

    r_star               -- the radius
    first_order_residual -- f'(r_star), must vanish to 1e-12
    second_order_value   -- f''(r_star), must be strictly negative
    f_at_rstar           -- f(r_star), must satisfy f(r_star) <= -r_star/2
    """

    r_star: float
    first_order_residual: float
    second_order_value: float
    f_at_rstar: float

    def validate(self) -> None:
        if abs(self.first_order_residual) > 1e-12:
            raise ValueError(f"first-order residual {self.first_order_residual:.3e} exceeds 1e-12")
        if not self.second_order_value < 0:
            raise ValueError("second-order value is not negative")
        if not self.f_at_rstar <= -self.r_star / 2:
            raise ValueError("f(r_star) <= -r_star/2 fails")


_SCAN_STEP = 1e-3
_SCAN_MAX_POINTS = 10**6  # keeps each array of the scan within 8 MB


def _scan_fits(a: float, b: float) -> bool:
    """Whether the scan of [a, b] at step 1e-3 stays within the point cap."""
    return (b - a) / _SCAN_STEP < _SCAN_MAX_POINTS


def find_r_star(search_interval=(0.1, 4.0), tol: float = 1e-13) -> RStarCertificate:
    """Smallest strict local maximizer of the radial drift in the interval.

    f' falls from positive to negative exactly at a strict local maximum of
    f, so a dense scan of f' (step 1e-3) finds its first falling crossing,
    which is bisected to ``tol`` and polished with Newton steps on f''.  An
    interval with no falling crossing raises ``NoRootFoundError``.  An
    interval whose scan would exceed a million points (wider than 1000), or
    a ``tol`` that is not finite and positive, raises ``ValueError`` before
    the scan.
    """
    a, b = float(search_interval[0]), float(search_interval[1])
    if not (0 < a < b):
        raise ValueError("search interval must satisfy 0 < a < b")
    if not _scan_fits(a, b):
        raise ValueError(f"search interval [{a}, {b}] needs more than {_SCAN_MAX_POINTS} scan points")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    grid = np.arange(a, b, _SCAN_STEP)
    if grid[-1] < b:
        grid = np.append(grid, b)
    vals = radial_f_slope(grid)
    falls = np.nonzero((vals[:-1] > 0) & (vals[1:] < 0))[0]
    if not len(falls):
        raise NoRootFoundError(f"f' has no falling crossing in [{a}, {b}]")
    i = falls[0]
    lo, hi = float(grid[i]), float(grid[i + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats; the bracket cannot shrink
            break
        if radial_f_slope(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    # Newton polish: the bisection root is accurate to ~tol; a couple of
    # steps with f'' push the residual to the floating-point floor.
    for _ in range(3):
        g, dg = radial_f_slope(root), second_order_value(root)
        if dg == 0:
            break
        nxt = root - g / dg
        if not (lo - _SCAN_STEP <= nxt <= hi + _SCAN_STEP):
            break
        if abs(radial_f_slope(nxt)) < abs(g):
            root = nxt
        else:
            break
    return RStarCertificate(
        r_star=float(root),
        first_order_residual=radial_f_slope(root),
        second_order_value=second_order_value(root),
        f_at_rstar=radial_f(root),
    )


# (x * x) @ _ONES is x1^2 + x2^2 in both columns; x @ _QUARTER_TURN is (-x2, x1).
_ONES = np.ones((2, 2))
_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Batches of up to this many states under a shared input take the row loop,
# where NumPy's per-call dispatch sets the cost; at 11 rows the minima tie.
# Median µs per call, row loop / NumPy (2-vCPU Xeon VM, Python 3.11, NumPy 2.4):
#   rows   2          4          6          8          10         11         12
#   µs     1.9 / 5.6  2.9 / 6.3  3.7 / 6.5  5.2 / 6.3  6.2 / 6.7  6.2 / 6.8  6.4 / 6.2
# The log-radius field of verify_ges crosses over at the same size:
#   rows   2          4          8          10         11         12         16
#   µs     1.2 / 2.4  1.5 / 2.4  2.1 / 2.5  2.4 / 2.5  2.5 / 2.5  2.7 / 2.5  3.3 / 2.5
_PYTHON_ROWS_MAX = 10
# Bound once: two module attribute lookups are about 3% of a single-state call.
_sin, _exp, _array = math.sin, math.exp, np.array


def _rows_rhs(rows, u):
    # The field's one Python-float spelling, for rows of Python floats (cheaper
    # than NumPy scalars) under one input; the derivatives come back flat.
    u1, u2 = u
    out = []
    for x1, x2 in rows:
        r2 = x1 * x1 + x2 * x2
        # math.sin(inf) raises; an overflowed r^2 gives NaN, as np.sin does.
        s = _sin(r2) if r2 != math.inf else math.nan
        out += (-x1 + 0.5 * x1 * s - x2 + u1, -x2 + 0.5 * x2 * s + x1 + u2)
    return out


def _co_rows_rhs(rows, u):
    # _rows_rhs without the quarter turn: the field in the co-rotating frame.
    u1, u2 = u
    out = []
    for y1, y2 in rows:
        r2 = y1 * y1 + y2 * y2
        s = _sin(r2) if r2 != math.inf else math.nan
        out += (-y1 + 0.5 * y1 * s + u1, -y2 + 0.5 * y2 * s + u2)
    return out


def _evaluator(rows_rhs, turn: bool):
    def rhs(x, u):
        # x is one state (2,) or a batch (N, 2), and u shared (2,) or one row per
        # state (N, 2), as VectorField checks; one state, or a small batch under a
        # shared input, takes the row loop.  Both evaluators do the same arithmetic
        # and math.sin equals np.sin bit for bit with NumPy 2.4 on x86-64 (5M samples
        # over [0, 1e8], 1M log-uniform up to 1e308), so rows match single states.
        if x.ndim == 1:
            return _array(rows_rhs((x.tolist(),), u.tolist()))
        if u.ndim == 1 and len(x) <= _PYTHON_ROWS_MAX:
            return _array(rows_rhs(x.tolist(), u.tolist())).reshape(x.shape)
        # Any other batch makes nine NumPy calls on (N, 2) arrays (eight without
        # the turn).  Elementwise, 0.5*x*s - x is -x + 0.5*x*s, as addition
        # commutes; sin sees the same argument, as every matmul product is by 0
        # or +-1, hence exact, so with or without FMA and in any order an entry
        # rounds as x1^2 + x2^2 does, or is -x2 or x1 plus a signed zero.  That
        # zero's sign shows only when the other coordinate is 0, and then the
        # column it is added to is +0 or nonzero, so the sum is the same.
        out = 0.5 * x
        out *= np.sin(np.dot(x * x, _ONES))
        out -= x
        if turn:
            out += np.dot(x, _QUARTER_TURN)
        out += u
        return out

    return rhs


_field_rhs = _evaluator(_rows_rhs, True)
_co_field_rhs = _evaluator(_co_rows_rhs, False)


def _field_jacobian(x, u):
    x1, x2 = x[..., 0], x[..., 1]
    r2 = x1 * x1 + x2 * x2
    s, c = np.sin(r2), np.cos(r2)
    rows = [[-1.0 + 0.5 * s + x1 * x1 * c, x1 * x2 * c - 1.0], [x1 * x2 * c + 1.0, -1.0 + 0.5 * s + x2 * x2 * c]]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def circle_field() -> VectorField:
    """The planar vector field with radial drift f(r) and unit rotation."""
    return VectorField(_field_rhs, 2, 2, jacobian=_field_jacobian, per_row_inputs=True, input_affine=True)


def build_counterexample(r_star: float):
    """Forced system (field, rotating input of period 2*pi) for radius r_star."""
    amplitude = -radial_f(r_star)

    def forcing(t):
        # A finite Python float takes math's cos and sin, equal to NumPy's bit
        # for bit and cheaper to call; times in an array, or a non-finite
        # time (NaN, not math's ValueError), take NumPy's.
        if isinstance(t, float) and math.isfinite(t):
            return _array([amplitude * math.cos(t), amplitude * math.sin(t)])
        return np.array([amplitude * np.cos(t), amplitude * np.sin(t)])

    return circle_field(), PeriodicInput(TWO_PI, forcing)


def rotating_frame_counterexample(r_star: float):
    """``build_counterexample`` in the frame y = R(-t)x that turns with the input.

    The input turns at the field's own angular speed, so there the system is
    autonomous, y' = y(sin|y|^2/2 - 1) + a e1 with a = -f(r_star), a constant
    input of period 2*pi.  Both forced orbits, of radius r_star and (at the
    certified r_star) 1.6749, are rest points on the first axis.  A state maps
    back as x = R(t)y; as R(2*pi k) = I, the time-2*pi map is the inertial one.
    """
    push = _array([-radial_f(r_star), 0.0])
    push.flags.writeable = False
    return VectorField(_co_field_rhs, 2, 2, input_affine=True), PeriodicInput(TWO_PI, lambda t: push)


@lru_cache(maxsize=1)
def _canonical_radius() -> float:
    return find_r_star().r_star


def circle_orbit_residual(r_star: float, sample_count: int) -> float:
    """Max norm of RHS(gamma(t), u(t)) - gamma'(t) over sampled t in [0, 2*pi).

    ``r_star`` is the candidate circle radius for gamma(t) = (r cos t,
    r sin t); the rotating forcing is always the one of the constructed
    system, i.e. built from the certified maximizer.  The residual vanishes
    up to roundoff exactly when the candidate radius matches the forcing
    radius' drift value, and degrades to ~|f(r) - f(r*)| otherwise.
    """
    if sample_count < 8:
        raise ValueError("sample_count must be at least 8")
    if not math.isfinite(r_star):
        raise ValueError(f"radius must be finite, got {r_star}")
    field, signal = build_counterexample(_canonical_radius())
    t = np.linspace(0.0, TWO_PI, sample_count, endpoint=False)
    gamma = r_star * np.column_stack([np.cos(t), np.sin(t)])
    gamma_dot = r_star * np.column_stack([-np.sin(t), np.cos(t)])
    rhs = field(gamma, signal.eval(t).T)
    return float(np.max(np.linalg.norm(rhs - gamma_dot, axis=1)))


def random_initial_conditions(count: int, radius: float, seed: int = 0) -> np.ndarray:
    """Deterministic sample of ``count`` points in the disk of given radius.

    A radius that is negative or not finite raises ``ValueError``; radius 0
    gives the origin ``count`` times.
    """
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, TWO_PI, size=count)
    r = radius * np.sqrt(rng.uniform(size=count))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


_GES_GRID_MAX = 50.0
_GES_GRID_POINTS = 50001
_GES_SLACK = 1e-9


@lru_cache(maxsize=1)
def _ges_scan() -> tuple[np.ndarray, np.ndarray]:
    # The generator scan grid and f on it, shared read-only by every verify_ges call.
    grid = np.linspace(0.0, _GES_GRID_MAX, _GES_GRID_POINTS)
    drift = radial_f(grid)
    grid.flags.writeable = drift.flags.writeable = False
    return grid, drift


def _log_radius_rhs(rho, u):
    # rho = log|x| under the unforced field: the quarter turn is tangential, so
    # x.F(x, 0) = |x|^2 g(|x|) and rho' = g(e^rho) = -1 + sin(e^(2 rho))/2.  One
    # state (1,) or a batch (N, 1); up to _PYTHON_ROWS_MAX rows take the row loop.
    # math.exp and np.exp differ by one ulp on 4.6% of arguments (5M uniform on
    # [-50, 709]), so the two branches need not agree bit for bit; each call is
    # deterministic.
    if rho.size <= _PYTHON_ROWS_MAX:
        out = []
        for r in rho.ravel().tolist():
            try:
                s = _sin(_exp(r + r))
            except (OverflowError, ValueError):  # e^(2 rho) overflows: NumPy gives inf, then NaN
                s = math.nan
            out.append(-1.0 + 0.5 * s)
        return _array(out).reshape(rho.shape)
    out = np.exp(rho + rho)
    np.sin(out, out=out)
    out *= 0.5
    out -= 1.0
    return out


_LOG_RADIUS = VectorField(_log_radius_rhs, 1, 0)


def verify_ges(initial_conditions, horizon: float, rate: float, config: IntegratorConfig | None = None) -> Certificate:
    """Certify ||x(t)|| <= exp(-rate*t) ||x(0)|| for the unforced system.

    Two independent checks: the generator-level inequality
    f(r) + rate*r <= 0 on a dense grid over [0, 50] (beyond which
    |sin| <= 1 makes the inequality structural for rate <= 1/2), and the
    trajectory-level bound at every accepted integrator step, with relative
    slack 1e-9.  A failure of either check yields holds=False with a witness
    (the first largest excess, in time and then in start order); a non-finite
    scan value raises ``NonFiniteError``, and so does an excess, at its first
    step.

    The trajectory check integrates rho = log||x||, not the planar state.  The
    unit rotation is tangential, so rho' = f(e^rho)/e^rho = -1 + sin(e^(2 rho))/2
    exactly, and the relative excess is expm1(rho(t) - rho(0) + rate*t).  All
    nonzero starts run in lockstep on shared steps, so memory is one trajectory
    of steps x starts floats.  rho needs no absolute floor, so the run
    resolves ||x|| at every radius; a planar run would resolve ||x|| only down
    to its ``abs_tol``, and at the default tolerances refutes the stable
    system at horizon 60.  The tolerances do not bound the error in rho,
    the relative error in ||x||, though: the step control is relative to
    |rho|, and local errors add up while sin(e^(2 rho)) oscillates.  Against
    ``IntegratorConfig(1e-13, 1e-15)``, rho(20) at the defaults is off by
    0.9e-10 to 4.0e-10 for the 100 starts of ``run ges-check`` (seeds 0 to 5)
    and by 2.2e-8, 7.0e-8 and 7.9e-8 for a lone start of norm 8, 9 and 10.
    The error is made in the transient and stays flat in the horizon: 4.2e-8
    for norm 9.5 at horizons 20, 60, 2000 and 50,000.  A start of
    norm past sqrt(DBL_MAX), about 1.34e154, where e^(2 rho) overflows, raises
    ``NonFiniteError``.  sin(e^(2 rho)) oscillates faster as the norm grows,
    and so does the step count: 167 steps to horizon 20 from norm 10, 8,469
    from norm 100.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError("rate must be positive and finite")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    starts = np.asarray(initial_conditions, dtype=float)
    if starts.size == 0:
        starts = starts.reshape(0, 2)
    if starts.ndim != 2 or starts.shape[1] != 2:
        raise ValueError("initial conditions must be an (N, 2) array of planar states")
    if not math.isfinite(rate * _GES_GRID_MAX):
        raise NonFiniteError(f"rate * r overflows on the generator scan grid for rate {rate!r}")
    grid, drift = _ges_scan()
    gen_vals = drift + rate * grid
    gen_margin = float(np.max(gen_vals))
    grid_spec = {
        "grid": {"lo": 0.0, "hi": _GES_GRID_MAX, "count": _GES_GRID_POINTS},
        "horizon": float(horizon),
        "rate": float(rate),
        "initial_conditions": len(starts),
    }
    if gen_margin > 0:
        idx = int(np.argmax(gen_vals))
        return Certificate(
            holds=False,
            margin=gen_margin,
            witness={"r": float(grid[idx]), "kind": "generator grid scan"},
            grid_spec=grid_spec,
            note="f(r) + rate*r > 0 on the scan grid",
        )

    # Every start meets the bound with equality at t = 0, so row 0 is not scored.
    traj_margin = 0.0 if len(starts) else -np.inf
    witness = None
    # hypot neither overflows nor underflows, so every finite nonzero start has a finite log-radius.
    norms = np.hypot(starts[:, 0], starts[:, 1])
    moving = norms != 0.0
    if np.any(moving):
        x0, rho0 = starts[moving], np.log(norms[moving])
        traj = integrate(_LOG_RADIUS, ConstantInput(()), rho0[:, None], (0.0, horizon), config)
        ts, excess = traj.times[1:], traj.states[1:, :, 0]
        # The states are finite, so the excess is not finite only where it
        # overflows to +inf; with NumPy's warnings off, such an excess wins
        # below and raises.  It is worked out in place: the trajectory is not
        # used again.
        with np.errstate(over="ignore"):
            excess -= rho0
            excess += rate * ts[:, None]
            np.expm1(excess, out=excess)
        # The C-order argmax is the first maximum in time, then start.
        k, i = divmod(int(np.argmax(excess)), len(x0))
        if not math.isfinite(excess[k, i]):
            raise NonFiniteError(f"the relative excess is not finite at t={ts[k]}")
        if excess[k, i] > traj_margin:
            traj_margin = float(excess[k, i])
            witness = {"x0": x0[i].tolist(), "t": float(ts[k])}
    holds = traj_margin <= _GES_SLACK
    return Certificate(
        holds=holds,
        margin=float(max(traj_margin, gen_margin)),
        witness=witness if not holds else None,
        grid_spec=grid_spec,
        note="margin is max of generator-scan value and relative trajectory excess",
    )


def polar_equivalence_check(grid_points) -> Certificate:
    """Check the unforced field maps to (r', theta') = (f(r), 1) pointwise.

    ``grid_points`` is a nonempty iterable of (r, theta) pairs with r > 0.
    The Cartesian field is pushed through the polar Jacobian and compared with
    the closed-form polar dynamics to 1e-12; the witness is the first point
    of largest deviation.  No points, or a point with r <= 0, raise
    ``ValueError``; a non-finite deviation raises ``NonFiniteError``.
    """
    points = np.array(list(grid_points), dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:  # no points give shape (0,)
        raise ValueError("grid points must be one or more (r, theta) pairs")
    r, theta = points[:, 0], points[:, 1]
    if np.any(r <= 0):
        raise ValueError("polar grid requires r > 0")
    x = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    dx = circle_field()(x, np.zeros(2))
    r_dot = np.add.reduce(x * dx, axis=1) / r
    theta_dot = (x[:, 0] * dx[:, 1] - x[:, 1] * dx[:, 0]) / (r * r)
    devs = np.maximum(np.abs(r_dot - radial_f(r)), np.abs(theta_dot - 1.0))
    if not np.all(np.isfinite(devs)):
        raise NonFiniteError("the polar deviation is not finite at some grid point")
    i = int(np.argmax(devs))
    worst = float(devs[i])
    holds = worst <= 1e-12
    return Certificate(
        holds=holds,
        margin=worst,
        witness=None if holds else {"r": float(r[i]), "theta": float(theta[i])},
        grid_spec={"points": len(points), "tolerance": 1e-12},
    )
