"""Vector fields, input signals, and a reference adaptive ODE integrator.

The integrator is an explicit embedded Runge-Kutta 5(4) pair with
Dormand-Prince coefficients and a PI step-size controller.  Runs are
segmented at input discontinuities so the error estimator never straddles a
jump.  At a breakpoint the stages restart but the step-size controller
carries over: the starting step is estimated once per run, and each piece
begins with the step proposal and controller memory the last one left.  A
trajectory is exactly its accepted steps: no interpolation is offered, so a
caller that needs the state at a given time integrates to that time, and the
state there carries the step's own error control.

Each step makes one finiteness test over all of its stages, and looks the
input up once per distinct stage time: stages 5 and 6 both sit at the step
end and share one lookup, and the left limit at a segment's end is looked up
once per segment.  A step with a non-finite stage is rejected and retried at
a quarter of its length.

On the paper's 2-D states NumPy's per-call dispatch, not arithmetic, sets a
step's cost: besides its six field calls an accepted step makes 39 NumPy
calls and one store into a 0-d array.  The stage sums and the error estimate
call bound ``ndarray.dot`` methods, the BLAS gemv of ``np.matmul`` bit for
bit without ``np.dot``'s dispatcher, and arrays are scaled in place by 0-d
arrays, which dispatch faster than Python floats.  Each state's error scale
rel*|x| + abs is worked out once: correctly rounded operations are monotone,
so rel*max(|x|, |xi|) + abs equals max(rel*|x| + abs, rel*|xi| + abs)
exactly, and an accepted state's scale serves the next step.  A state or
batch of at most 16 floats makes 31 NumPy calls a step instead: the error
estimate and the new state are handed over as Python floats, and the
scales, the error norm and the new state's finiteness test are worked out in
those, bit for bit, since each of their operations is correctly rounded
elementwise.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, StepSizeUnderflowError

__all__ = [
    "IntegratorConfig",
    "VectorField",
    "InputSignal",
    "ConstantInput",
    "PeriodicInput",
    "PiecewiseConstantInput",
    "ConcatenatedInput",
    "concat",
    "Trajectory",
    "integrate",
]


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")


_FD_STEP = 1e-6
_asarray = np.asarray  # bound, dtype passed positionally: 94 ns on two floats, not 157


def _central_difference(fn, x, n: int) -> np.ndarray:
    """Derivative of ``fn`` at one state ``(n,)`` or a stack ``(N, n)`` by
    central differences with step 1e-6; the derivative along axis k is the
    slice ``[..., k]``."""
    steps = np.eye(n) * _FD_STEP
    return np.stack([(fn(x + h) - fn(x - h)) / (2 * _FD_STEP) for h in steps], axis=-1)


class VectorField:
    """Dynamics x' = f(x, u) with state-Jacobian access.

    ``f(x, u)`` maps one state ``(n,)`` or a stack ``(N, n)`` sharing one
    input of shape exactly ``(m,)``, row by row, to derivatives of exactly
    ``x.shape``; a field built with ``per_row_inputs=True`` also takes an
    ``(N, m)`` input with an ``(N, n)`` stack, one row per state.  The
    Jacobian takes a shared input only and returns ``x.shape + (n,)``, or
    ``(n, n)`` when it does not depend on the state, which is broadcast.  Any
    other input raises ``ValueError`` before ``f`` or the Jacobian runs, and
    so does any other result shape.  Without an analytic ``jacobian``,
    central differences with step 1e-6 stand in.
    """

    def __init__(self, f, state_dim: int, input_dim: int, jacobian=None, per_row_inputs: bool = False):
        self._f = f
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        self._jacobian = jacobian
        self.per_row_inputs = bool(per_row_inputs)
        self._shared = (self.input_dim,)

    def _input_error(self, x, u) -> ValueError:
        need = f"{self._shared}, or (N, {self.input_dim}) with per_row_inputs=True"
        return ValueError(f"input of shape {u.shape} for states of shape {x.shape}: need {need}")

    def __call__(self, x, u) -> np.ndarray:
        x = _asarray(x, float)
        u = _asarray(u, float)
        if u.shape != self._shared and not (self.per_row_inputs and x.ndim == 2 and u.shape == (len(x), self.input_dim)):
            raise self._input_error(x, u)
        out = _asarray(self._f(x, u), float)
        if out.shape != x.shape:
            raise ValueError(f"field returned shape {out.shape} for states of shape {x.shape}")
        return out

    def jacobian_x(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if u.shape != self._shared:
            raise self._input_error(x, u)
        if self._jacobian is None:
            return _central_difference(lambda y: self(y, u), x, self.state_dim)
        jac = np.asarray(self._jacobian(x, u), dtype=float)
        shape = x.shape + (self.state_dim,)
        if jac.shape == shape:
            return jac
        if jac.shape == (self.state_dim, self.state_dim):
            return np.broadcast_to(jac, shape)
        raise ValueError(f"Jacobian returned shape {jac.shape} for states of shape {x.shape}")


class InputSignal:
    """Time function u(t) with right-continuous semantics at discontinuities."""

    dim: int

    def eval(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def eval_left(self, t: float) -> np.ndarray:
        """Left limit at ``t``; equals ``eval`` except at discontinuities."""
        return self.eval(t)

    def breakpoints_in(self, t0: float, t1: float) -> list[float]:
        """Discontinuity times strictly inside (t0, t1)."""
        return []


class ConstantInput(InputSignal):
    def __init__(self, value):
        self.value = np.atleast_1d(np.asarray(value, dtype=float)).copy()
        self.dim = self.value.shape[0]

    def eval(self, t):
        return self.value


class PeriodicInput(InputSignal):
    """u(t + period) = u(t); spot-checked at construction, not again on a shift."""

    def __init__(self, period: float, fn):
        if not 0 < period < math.inf:
            raise ValueError("period must be finite and positive")
        self.period = float(period)
        self._fn = fn
        self.dim = np.atleast_1d(np.asarray(fn(0.0), dtype=float)).shape[0]
        for k in range(8):
            t = k * self.period / 8.0
            a = np.atleast_1d(np.asarray(fn(t), dtype=float))
            b = np.atleast_1d(np.asarray(fn(t + self.period), dtype=float))
            if not np.allclose(a, b, rtol=1e-9, atol=1e-9):
                raise ValueError(f"signal is not {period}-periodic at t={t}")

    def eval(self, t):
        u = _asarray(self._fn(t), float)
        return u.reshape(1) if u.ndim == 0 else u

    def shifted(self, offset) -> "PeriodicInput":
        """Signal s with s(t) = self(t + offset), the one shift a claim makes."""
        # Not checked again: at a large offset, rounding alone would fail the check.
        fn, out = self._fn, copy.copy(self)
        out._fn = lambda t: fn(t + offset)
        return out


class PiecewiseConstantInput(InputSignal):
    """Right-continuous step function: values[i] applies on [bp[i-1], bp[i])."""

    def __init__(self, breakpoints, values):
        self.breakpoints = np.atleast_1d(np.asarray(breakpoints, dtype=float)).copy()
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        self.values = vals.copy()
        if not (np.isfinite(self.breakpoints).all() and np.isfinite(self.values).all()):
            raise ValueError("breakpoints and values must be finite")
        if self.breakpoints.ndim != 1 or np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.values.shape[0] != self.breakpoints.shape[0] + 1:
            raise ValueError("need exactly len(breakpoints)+1 values")
        self.dim = self.values.shape[1]
        # Python floats: bisect on a list is several times cheaper per
        # lookup than np.searchsorted on the array.
        self._cuts = self.breakpoints.tolist()

    def eval(self, t):
        return self.values[bisect_right(self._cuts, t)]

    def eval_left(self, t):
        return self.values[bisect_left(self._cuts, t)]

    def breakpoints_in(self, t0, t1):
        return self._cuts[bisect_right(self._cuts, t0) : bisect_left(self._cuts, t1)]


class ConcatenatedInput(InputSignal):
    """u before t_switch, v from t_switch on (right-inclusive boundary)."""

    def __init__(self, u: InputSignal, v: InputSignal, t_switch: float):
        if u.dim != v.dim:
            raise ValueError("concatenated signals must share a dimension")
        if not math.isfinite(t_switch):
            raise ValueError(f"switch time must be finite, got {t_switch}")
        self.u = u
        self.v = v
        self.t_switch = float(t_switch)
        self.dim = u.dim

    def eval(self, t):
        return self.u.eval(t) if t < self.t_switch else self.v.eval(t)

    def eval_left(self, t):
        return self.u.eval_left(t) if t <= self.t_switch else self.v.eval_left(t)

    def breakpoints_in(self, t0, t1):
        pts = set(self.u.breakpoints_in(t0, t1)) | set(self.v.breakpoints_in(t0, t1))
        if t0 < self.t_switch < t1:
            pts.add(self.t_switch)
        return sorted(pts)


def concat(u: InputSignal, v: InputSignal, t0: float) -> InputSignal:
    """Signal equal to u(t) for t < t0 and v(t) for t >= t0."""
    return ConcatenatedInput(u, v, t0)


class Trajectory:
    """Time-stamped states from accepted integrator steps.

    ``states`` has shape ``(T, n)`` for one start or ``(T, N, n)`` for a
    lockstep batch of N starts; ``times[0]`` is the start of the span and
    every later time is the end of one accepted step.
    """

    def __init__(self, times, states):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        if self.states.shape[:1] != self.times.shape or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing, with one state per time")
        if not np.all(np.isfinite(self.states)):
            raise NonFiniteError("trajectory contains non-finite states")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5).  Row i of _A gives stage i; row 6 is also the 5th-order solution, so
# the last stage state is the accepted step (first same as last).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.zeros((7, 7))
_A[1, :1] = [1 / 5]
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
# Stage i's nonzero coefficients' bound dot: one gemv, 0.2 µs less than np.dot.
_A_DOTS = tuple(_A[i, :i].dot for i in range(7))
# Difference between the 5th-order weights and the embedded 4th-order weights.
_E_DOT = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]).dot

_SAFETY = 0.9
_PI_BETA = 0.04
_EXPO = 0.2 - 0.75 * _PI_BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0


def _rms(v):
    """Root mean square over the last axis: one norm per trajectory."""
    return np.sqrt(np.square(v).sum(axis=-1) / v.shape[-1])


def _all_finite(a) -> bool:
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


# A state or batch of at most this many floats, in rows of fewer than 8, gets
# its error norm in Python floats: on so few entries NumPy's per-call
# dispatch, not arithmetic, sets the cost.  Median µs of the block after the
# error estimate up to the finiteness test on the new state, NumPy / Python
# floats, on rows of 2 (2-vCPU Xeon VM, Python 3.11, NumPy 2.4):
#   floats     2          4          8          12         16         32
#   µs         7.2 / 1.9  7.1 / 1.8  6.7 / 3.2  6.7 / 4.0  6.8 / 4.8  7.1 / 7.9
_PYTHON_NORM_MAX = 16


def _python_error_norm(e, h, sc_x, sc_xi, n):
    """The NumPy block's error norm, bit for bit, from Python-float lists.

    Every operation is correctly rounded elementwise, and NumPy sums a row of
    fewer than 8 entries in order from the first, as the loop here does.  The
    norm can differ from NumPy's only where a stage or the new state is not
    finite, and such a step is rejected either way.
    """
    worst = row = 0.0
    j = 0
    for ej, a, b in zip(e, sc_x, sc_xi):
        q = ej * h / (a if a >= b else b)
        row += q * q
        j += 1
        if j == n:
            if row > worst:
                worst = row
            row, j = 0.0, 0
    return math.sqrt(worst / n)


def _hinit(field, signal, t0, t_end, u_end, x0, f0, sc):
    seg_span = t_end - t0
    # A batch takes its smallest state scale and its largest derivative scales.
    d0, d1 = np.min(_rms(x0 / sc)), np.max(_rms(f0 / sc))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, seg_span)
    f1 = field(x0 + h0 * f0, u_end if t0 + h0 >= t_end else signal.eval(t0 + h0))
    d2 = np.max(_rms((f1 - f0) / sc)) / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
    # A Python float: each controller operation on a NumPy scalar is a NumPy call.
    return float(min(100 * h0, h1, seg_span))


def integrate(field: VectorField, signal: InputSignal, x0, t_span, config: IntegratorConfig | None = None) -> Trajectory:
    """Solve x' = f(x, u(t)) over ``t_span`` with local error control.

    ``x0`` is one state ``(n,)`` or a batch ``(N, n)`` of starts advanced in
    lockstep, each stage making one field call on the whole batch (see
    :class:`VectorField`); the starts share the signal's value, unless a
    field with per-row inputs gets an ``(N, m)`` one.  A shared step is
    accepted only when the largest per-row error norm is within tolerance,
    so no row's local error is worse than it would be integrated alone.
    Every input discontinuity inside the span is a step end, so each
    Runge-Kutta step sees a smooth right-hand side.  There the stages
    restart from a fresh derivative, but the step size and the controller
    memory carry over to the next piece.  The span must be finite.
    """
    config = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 < t1 < math.inf:
        raise ValueError("t_span must be finite and satisfy t1 > t0")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("initial state has non-finite entries")
    if x.ndim > 2 or x.size == 0:
        raise ValueError(f"initial state has shape {x.shape}: need one state (n,) or a non-empty batch (N, n)")
    if x.shape[-1] != field.state_dim:
        raise ValueError(f"initial state has dimension {x.shape[-1]}, field expects {field.state_dim}")
    if signal.dim != field.input_dim:
        raise ValueError(f"input signal has dimension {signal.dim}, field expects {field.input_dim}")

    cuts = [t0] + signal.breakpoints_in(t0, t1) + [t1]
    min_step = 1e-14 * (t1 - t0)
    n = x.shape[-1]
    # Stage derivatives, with views of the first i rows for stage i's sum.
    k = np.empty((7,) + x.shape)
    k_flat = k.reshape(7, -1)
    k_heads = [k_flat[:i] for i in range(7)]
    # Buffers for a stage's sum and for the error terms (one row per
    # trajectory), each with a flat view that takes the dot results.  The
    # stage states themselves are fresh arrays, since a field may keep its
    # input.  The step length and tolerances are 0-d arrays, and sc_x and
    # sc_xi the error scales of a step's start and result (module docstring):
    # arrays, or flat lists of Python floats for a small state or batch.
    acc = np.empty(x.shape)
    acc_flat = acc.reshape(-1)
    err_vec = np.empty((x.size // n, n))
    err_flat = err_vec.reshape(-1)
    h_arr, rel_tol, abs_tol = np.empty(()), np.array(config.rel_tol), np.array(config.abs_tol)
    sc0 = np.abs(x) * rel_tol + abs_tol
    python_norm = x.size <= _PYTHON_NORM_MAX and n < 8
    if python_norm:
        sc_x, rel, atol = sc0.reshape(-1).tolist(), config.rel_tol, config.abs_tol
    else:
        sc, sc_x, sc_xi = np.empty(err_vec.shape), sc0, np.empty(err_vec.shape)
    h = None
    facold = 1e-4
    eval_u = signal.eval
    ts, xs = [t0], [x.copy()]
    for t, t_end in zip(cuts[:-1], cuts[1:]):
        # Every stage at or past the segment end sees its left limit, so a
        # breakpoint never leaks across a step.
        u_end = signal.eval_left(t_end)
        # The input jumps at a breakpoint, so the stages restart there; the
        # step proposal and the controller memory carry over.
        k[0] = field(x, signal.eval(t))
        if not _all_finite(k[0]):
            raise NonFiniteError(f"dynamics non-finite at t={t}")
        if h is None:
            h = _hinit(field, signal, t, t_end, u_end, x, k[0], sc0)
        nonfinite_streak = 0
        while t < t_end:
            # A step that lands on the segment end may be as short as the
            # segment itself, however short that is.
            final = h >= (t_end - t) * (1 - 1e-12)
            if h < min_step and not final:
                if nonfinite_streak > 0:
                    raise NonFiniteError(f"state blew up near t={t}")
                raise StepSizeUnderflowError(f"step size {h:.3e} underflowed at t={t}")
            t_next = t_end if final else t + h
            h_eff = t_next - t
            if h_eff <= 0:
                raise StepSizeUnderflowError(f"step no longer advances time at t={t}")
            h_arr[()] = h_eff
            # Stages 5 and 6 both sit at t_next and share its input.
            u_next = u_end if t_next >= t_end else eval_u(t_next)
            for i in range(1, 7):
                _A_DOTS[i](k_heads[i], out=acc_flat)
                acc *= h_arr
                xi = x + acc
                k[i] = field(xi, u_next if i >= 5 else u_end if (s := t + _C[i] * h_eff) >= t_end else eval_u(s))
            # xi is now the stage-6 state, which is the 5th-order solution.
            # The error norm is sqrt(max over rows of sum(e^2) / n): division
            # and the square root are monotone and correctly rounded, so this
            # is bitwise the largest per-row RMS.
            _E_DOT(k_flat, out=err_flat)
            if python_norm:
                xi_list = xi.ravel().tolist()
                sc_xi = [abs(v) * rel + atol for v in xi_list]
                err = _python_error_norm(err_flat.tolist(), h_eff, sc_x, sc_xi, n)
                xi_finite = all(map(math.isfinite, xi_list))
            else:
                err_flat *= h_arr
                np.abs(xi, out=sc_xi)
                sc_xi *= rel_tol
                sc_xi += abs_tol
                err_vec /= np.maximum(sc_x, sc_xi, out=sc)
                err_vec *= err_vec
                err = math.sqrt(float(np.maximum.reduce(np.add.reduce(err_vec, axis=-1))) / n)
                xi_finite = _all_finite(xi)
            # One finiteness test over all seven stages: a step with a
            # non-finite stage is rejected once every stage has been evaluated.
            if not (_all_finite(k_flat) and xi_finite and math.isfinite(err)):
                nonfinite_streak += 1
                h *= 0.25
                continue
            nonfinite_streak = 0
            if err <= 1.0:
                ts.append(t_next)
                xs.append(xi)
                t, x = t_next, xi
                sc_x, sc_xi = sc_xi, sc_x
                k[0] = k[6]
                fac11 = err ** _EXPO if err > 0 else _FAC_MIN ** (1 / _PI_BETA)
                fac = fac11 / (facold ** _PI_BETA)
                fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
                facold = max(err, 1e-4)
                # A step cut short to land on the segment end keeps the
                # longer proposal it was cut from.
                h = max(h_eff / fac, h) if final else h_eff / fac
            else:
                fac11 = err ** _EXPO
                h = h_eff / min(1.0 / _FAC_MIN, fac11 / _SAFETY)
    return Trajectory(np.array(ts), np.array(xs))
