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
certifies each step of that argument numerically.
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

# Batches of up to this many states are done row by row in Python floats: on
# a tiny batch NumPy's per-call dispatch, not arithmetic, sets the cost.  The
# median µs per call, Python-float rows / NumPy branch (2-vCPU Xeon VM,
# Python 3.11, NumPy 2.4), with a shared input and with one input per row:
#   rows       2          3          4          5          100
#   shared     2.5 / 5.2  3.1 / 4.8  3.7 / 4.8  4.5 / 5.1  73 / 8.4
#   per row    2.4 / 4.1  3.2 / 4.2  4.0 / 4.3  4.8 / 4.3  80 / 6.9
_PYTHON_ROWS_MAX = 4
# Bound once: two module attribute lookups are about 3% of a single-state call.
_sin, _array = math.sin, np.array


def _state_rhs(x, u):
    # One state and its input as Python floats, which dispatch faster than NumPy scalars.
    (x1, x2), (u1, u2) = x, u
    r2 = x1 * x1 + x2 * x2
    # math.sin(inf) raises; an overflowed r^2 gives NaN, as np.sin does.
    s = _sin(r2) if r2 != math.inf else math.nan
    return [-x1 + 0.5 * x1 * s - x2 + u1, -x2 + 0.5 * x2 * s + x1 + u2]


def _field_rhs(x, u):
    # x is one state (2,) or a batch (N, 2); u is shared, or one row per state.
    # The Python-float rows and the NumPy branch do the same arithmetic, and
    # math.sin equals np.sin bit for bit with NumPy 2.4 on x86-64 (5M samples
    # over [0, 1e8] and 1M log-uniform up to 1e308), so a batch's rows equal
    # single states bit for bit on either side of the cut.
    if x.ndim == 1:
        return _array(_state_rhs(x.tolist(), u.tolist()))
    if 0 < len(x) <= _PYTHON_ROWS_MAX:
        rows = x.tolist()
        inputs = u.tolist() if u.ndim == 2 else [u.tolist()] * len(rows)
        return _array([_state_rhs(row, ui) for row, ui in zip(rows, inputs)])
    # A larger batch makes nine NumPy calls on (N, 2) arrays.  Elementwise,
    # 0.5*x*s - x is -x + 0.5*x*s, as addition commutes; sin sees the same
    # argument, as every matmul product is by 0 or +-1, hence exact, so with
    # or without FMA and in any order an entry rounds as x1^2 + x2^2 does, or
    # is -x2 or x1 plus a signed zero.  That zero's sign shows only when the
    # other coordinate is 0, and then the column it is added to is +0 or
    # nonzero, so the sum is the same.
    out = 0.5 * x
    out *= np.sin(np.dot(x * x, _ONES))
    out -= x
    out += np.dot(x, _QUARTER_TURN)
    out += u
    return out


def _field_jacobian(x, u):
    x1, x2 = x[..., 0], x[..., 1]
    r2 = x1 * x1 + x2 * x2
    s, c = np.sin(r2), np.cos(r2)
    rows = [[-1.0 + 0.5 * s + x1 * x1 * c, x1 * x2 * c - 1.0], [x1 * x2 * c + 1.0, -1.0 + 0.5 * s + x2 * x2 * c]]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def circle_field() -> VectorField:
    """The planar vector field with radial drift f(r) and unit rotation."""
    return VectorField(_field_rhs, 2, 2, jacobian=_field_jacobian, per_row_inputs=True)


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


def verify_ges(initial_conditions, horizon: float, rate: float, config: IntegratorConfig | None = None) -> Certificate:
    """Certify ||x(t)|| <= exp(-rate*t) ||x(0)|| for the unforced system.

    Two independent checks: the generator-level inequality
    f(r) + rate*r <= 0 on a dense grid over [0, 50] (beyond which
    |sin| <= 1 makes the inequality structural for rate <= 1/2), and the
    trajectory-level bound at every accepted integrator step, with relative
    slack 1e-9.  All nonzero starts are integrated in lockstep on shared
    steps, so memory is one trajectory of steps x starts x 2 floats.
    A failure of either check yields holds=False with a witness (the first
    largest excess, in time and then in start order); a non-finite scan
    value raises ``NonFiniteError``, and so does an excess, at its first step.

    Resolution limit: once exp(-rate*t) ||x(0)|| falls below the integrator's
    ``abs_tol`` (1e-11 by default), the trajectory check compares integrator
    noise with the bound, and refutes a stable system: margin 2.75 at t = 58.24
    (bound 2.3e-12) for rate 1/2, horizon 60 and starts of norm up to 10.
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
    norms = np.linalg.norm(starts, axis=1)
    moving = norms != 0.0
    if np.any(moving):
        x0, norm0 = starts[moving], norms[moving]
        traj = integrate(circle_field(), ConstantInput.zero(2), x0, (0.0, horizon), config)
        ts, x = traj.times[1:], traj.states[1:]
        # Far past resolution the bound underflows, so the excess overflows or is
        # 0/0; with NumPy's warnings off, such an excess wins below and raises.
        # The states are squared in place: the trajectory is not used again.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            excess = np.sqrt(np.add.reduce(np.square(x, out=x), axis=2))
            excess /= np.exp(-rate * ts)[:, None] * norm0
            excess -= 1.0
        # The C-order argmax is the first maximum in time, then start.
        k, i = divmod(int(np.argmax(excess)), len(x0))
        if not math.isfinite(excess[k, i]):
            k = int(np.argmin(np.isfinite(excess).all(axis=1)))
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
