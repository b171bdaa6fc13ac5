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
from .dynamics import ConstantInput, IntegratorConfig, PeriodicInput, VectorField, _steps
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
    "radial_rate",
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
    """Concavity indicator 3r cos(r^2) - 2r^2 sin(r^2); negative at maxima.

    At stationary radii its sign agrees with the sign of f'' over the
    scanned range, so it separates maxima from minima of the radial drift.
    """
    r = np.asarray(r, dtype=float)
    return _float_if_scalar(3.0 * r * np.cos(r * r) - 2.0 * r * r * np.sin(r * r))


@dataclass(frozen=True)
class RStarCertificate(JsonRecord):
    """Certified strict local maximizer of the radial drift.

    r_star               -- the radius
    first_order_residual -- f'(r_star), must vanish to 1e-12
    second_order_value   -- concavity indicator, must be strictly negative
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

    Brackets sign changes of f' by a dense scan (step 1e-3), refines each by
    bisection to ``tol``, polishes with Newton steps, and accepts the first
    root whose concavity indicator is strictly negative.  An interval whose
    scan would exceed a million points (wider than 1000), or a ``tol`` that
    is not finite and positive, raises ``ValueError`` before the scan.
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
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    for i in flips:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = radial_f_slope(lo)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):  # lo and hi are adjacent floats; the bracket cannot shrink
                break
            fmid = radial_f_slope(mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        root = 0.5 * (lo + hi)
        # Newton polish: the bisection root is accurate to ~tol; a couple of
        # steps with the analytic derivative push the residual to the
        # floating-point floor.
        for _ in range(3):
            g = radial_f_slope(root)
            dg = 3.0 * root * np.cos(root * root) - 2.0 * root**3 * np.sin(root * root)
            if dg == 0:
                break
            nxt = root - g / dg
            if not (lo - _SCAN_STEP <= nxt <= hi + _SCAN_STEP):
                break
            if abs(radial_f_slope(nxt)) < abs(g):
                root = nxt
            else:
                break
        if second_order_value(root) < 0:
            return RStarCertificate(
                r_star=float(root),
                first_order_residual=radial_f_slope(root),
                second_order_value=second_order_value(root),
                f_at_rstar=radial_f(root),
            )
    raise NoRootFoundError(
        f"no stationary radius with negative concavity in [{a}, {b}]"
    )


def _field_rhs(x, u):
    # x is one state (2,) or a batch (N, 2); u is shared, or one row per state.
    # Both forms do the same arithmetic, so batch rows equal single states bit for bit.
    if x.ndim == 1:
        x1, x2 = x
        s = np.sin(x1 * x1 + x2 * x2)
        return np.array([-x1 + 0.5 * x1 * s - x2 + u[0], -x2 + 0.5 * x2 * s + x1 + u[1]])
    out = 0.5 * x
    out *= np.sin(np.add.reduce(x * x, axis=1))[:, None]
    out -= x
    out[:, 0] -= x[:, 1]
    out[:, 1] += x[:, 0]
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
    return VectorField(_field_rhs, 2, 2, jacobian=_field_jacobian, name="circle-forcing example", per_row_inputs=True)


def build_counterexample(r_star: float):
    """Forced system (field, rotating input of period 2*pi) for radius r_star."""
    amplitude = -radial_f(r_star)
    field = circle_field()
    signal = PeriodicInput(
        TWO_PI, lambda t: np.array([amplitude * np.cos(t), amplitude * np.sin(t)])
    )
    return field, signal


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
    field, signal = build_counterexample(_canonical_radius())
    t = np.linspace(0.0, TWO_PI, sample_count, endpoint=False)
    gamma = r_star * np.column_stack([np.cos(t), np.sin(t)])
    gamma_dot = r_star * np.column_stack([-np.sin(t), np.cos(t)])
    rhs = field(gamma, signal.eval(t).T)
    return float(np.max(np.linalg.norm(rhs - gamma_dot, axis=1)))


def random_initial_conditions(count: int, radius: float, seed: int = 0) -> np.ndarray:
    """Deterministic sample of ``count`` points in the disk of given radius."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, TWO_PI, size=count)
    r = radius * np.sqrt(rng.uniform(size=count))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


_GES_GRID_MAX = 50.0
_GES_GRID_POINTS = 50001
_GES_SLACK = 1e-9


def verify_ges(initial_conditions, horizon: float, rate: float, config: IntegratorConfig | None = None) -> Certificate:
    """Certify ||x(t)|| <= exp(-rate*t) ||x(0)|| for the unforced system.

    Two independent checks: the generator-level inequality
    f(r) + rate*r <= 0 on a dense grid over [0, 50] (beyond which
    |sin| <= 1 makes the inequality structural for rate <= 1/2), and the
    trajectory-level bound at every accepted integrator step, with relative
    slack 1e-9.  All nonzero starts are integrated in lockstep on shared
    steps, and only the running worst excess is kept.  A failure of either
    check yields holds=False with a witness; a non-finite scan value or
    excess raises ``NonFiniteError``.

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
    grid = np.linspace(0.0, _GES_GRID_MAX, _GES_GRID_POINTS)
    gen_vals = radial_f(grid) + rate * grid
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

    # Every start meets the bound with equality at t = 0.
    traj_margin = 0.0 if len(starts) else -np.inf
    witness = None
    norms = np.linalg.norm(starts, axis=1)
    moving = norms != 0.0
    if np.any(moving):
        x0, norm0 = starts[moving], norms[moving]
        # Far past resolution the bound underflows, so the excess overflows or is
        # 0/0; with NumPy's warnings off, such an excess wins below and raises.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t, x in _steps(circle_field(), ConstantInput.zero(2), x0, (0.0, horizon), config):
                excess = np.sqrt(np.add.reduce(x * x, axis=1)) / (np.exp(-rate * t) * norm0) - 1.0
                i = int(np.argmax(excess))
                if not excess[i] <= traj_margin:
                    if not math.isfinite(excess[i]):
                        raise NonFiniteError(f"the relative excess is not finite at t={t}")
                    traj_margin = float(excess[i])
                    witness = {"x0": x0[i].tolist(), "t": float(t)}
    holds = traj_margin <= _GES_SLACK
    return Certificate(
        holds=holds,
        margin=float(max(traj_margin, gen_margin)),
        witness=witness if not holds else None,
        grid_spec=grid_spec,
        note="margin is max of generator-scan value and relative trajectory excess",
    )


def radial_rate(r: float, theta: float, t: float, r_star: float) -> float:
    """Instantaneous value of d(r^2)/dt / 2 for the forced system.

    Equals r*f(r) - r*cos(t - theta)*f(r_star); maximized over the phase at
    cos = 1, where it reduces to r*(f(r) - f(r_star)).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    return float(r * radial_f(r) - r * np.cos(t - theta) * radial_f(r_star))


def polar_equivalence_check(grid_points) -> Certificate:
    """Check the unforced field maps to (r', theta') = (f(r), 1) pointwise.

    ``grid_points`` is an iterable of (r, theta) pairs with r > 0.  The
    Cartesian field is pushed through the polar Jacobian and compared with
    the closed-form polar dynamics to 1e-12; the witness is the first point
    of largest deviation.  A non-finite deviation raises ``NonFiniteError``.
    """
    points = np.array(list(grid_points) or np.empty((0, 2)), dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("grid points must be (r, theta) pairs")
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
    i = int(np.argmax(devs)) if len(devs) else None
    worst = 0.0 if i is None else float(devs[i])
    holds = worst <= 1e-12
    return Certificate(
        holds=holds,
        margin=worst,
        witness=None if holds else {"r": float(r[i]), "theta": float(theta[i])},
        grid_spec={"points": len(points), "tolerance": 1e-12},
    )
