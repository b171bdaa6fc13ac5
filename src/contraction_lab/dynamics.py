"""Vector fields, input signals, and a reference adaptive ODE integrator.

The integrator is an explicit embedded Runge-Kutta pair with Dormand-Prince
coefficients and a PI step-size controller, picked once per call right after
the starting step h0 is estimated.  A span whose pieces between input
breakpoints average at least 8 h0 takes the 8(5,3) pair of Hairer's DOP853:
12 stages, an 8th-order step and Hairer's combined 5th/3rd-order error
estimate.  A span cut finer takes the 5(4) pair: 7 stages, the last of
which starts the next step (first same as last).  On smooth spans the 8(5,3)
pair takes about a third of the steps or fewer, at twice the field calls a
step: 18 steps against 131 over one forcing period of the forced orbit at
the default tolerances.  On one-step pieces the stage count decides.  Over
20 random schedules on [0, 2] of x' = -x + u, 4 starts, the 8(5,3) pair
makes 0.37 times the 5(4) pair's field calls at 41 starting steps a piece,
0.86 at 10, 1.03 at 8.2 and 1.5 at 5.2.  Neither error estimate weighs the
8(5,3) pair's 13th stage, the derivative at the new state, so it is
evaluated only once a step has passed its error test, and not at a piece
end, where the next piece restarts.

Runs are segmented at input discontinuities so the error estimator never
straddles a jump.  At a breakpoint the stages restart but the step-size
controller carries over: the starting step is estimated once per run, and
each piece begins with the step proposal and controller memory the last one
left.  A trajectory is exactly its accepted steps: no interpolation is
offered, so a caller that needs the state at a given time integrates to that
time, and the state there carries the step's own error control.

Each step makes one finiteness test over all of the stages it evaluates, and
looks the input up once per distinct stage time: the stages at the step end
share one lookup, and the left limit at a segment's end is looked up once per
segment.  A step with a non-finite stage is rejected and retried at a quarter
of its length.

On the paper's 2-D states NumPy's per-call dispatch, not arithmetic, sets a
step's cost: besides its six field calls an accepted 5(4) step makes 39 NumPy
calls and one store into a 0-d array, and an 8(5,3) step 73 besides its
twelve.  The stage sums and the error estimates call bound ``ndarray.dot``
methods, the BLAS gemv of ``np.matmul`` bit for bit without ``np.dot``'s
dispatcher, and arrays are scaled in place by 0-d arrays, which dispatch
faster than Python floats.  Each state's error scale rel*|x| + abs is worked
out once: correctly rounded operations are monotone, so rel*max(|x|, |xi|) +
abs equals max(rel*|x| + abs, rel*|xi| + abs) exactly, and an accepted
state's scale serves the next step.  A state or batch of at most 16 floats
makes 31 NumPy calls a 5(4) step, 57 an 8(5,3) step, instead: the error
estimates and the new state are handed over as Python floats, and the
scales, the error norm and the new state's finiteness test are worked out in
those, bit for bit, since each of their operations is correctly rounded
elementwise.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

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

    ``input_affine=True`` states that f(x, u) = g(x) + B(x) u for every x, a
    fact about f that no call checks, as ``jacobian`` is trusted:
    :func:`~contraction_lab.contraction.check_uniform_contraction` then
    decides a box of inputs at its vertices alone.
    """

    def __init__(
        self, f, state_dim: int, input_dim: int, jacobian=None, per_row_inputs: bool = False, input_affine: bool = False
    ):
        self._f = f
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        self._jacobian = jacobian
        self.per_row_inputs = bool(per_row_inputs)
        self.input_affine = bool(input_affine)
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


class PeriodicInput(InputSignal):
    """u(t + period) = u(t); spot-checked at construction, not again on a shift."""

    def __init__(self, period: float, fn):
        if not 0 < period < math.inf:
            raise ValueError("period must be finite and positive")
        self.period = float(period)
        self._fn = fn
        self.dim = np.atleast_1d(np.asarray(fn(0.0), dtype=float)).shape[0]
        ts = [k * self.period / 8.0 for k in range(8)]
        values = np.array([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in ts + [t + self.period for t in ts]])
        close = np.isclose(values[:8], values[8:], rtol=1e-9, atol=1e-9).reshape(8, -1).all(axis=1)
        if not close.all():
            raise ValueError(f"signal is not {period}-periodic at t={ts[int(np.argmin(close))]}")

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
    """Right-continuous step function: values[i] applies on [bp[i-1], bp[i]).

    values[i] is ``(m,)``, or ``(N, m)`` for a field with per-row inputs; either
    way ``dim`` is m.  As ``eval`` hands out views, ``breakpoints`` and
    ``values`` are read-only.
    """

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
        if self.values.ndim not in (2, 3) or self.values.shape[0] != self.breakpoints.shape[0] + 1:
            raise ValueError("need exactly len(breakpoints)+1 values, each (m,) or (N, m)")
        self.dim = self.values.shape[-1]
        self.breakpoints.flags.writeable = self.values.flags.writeable = False
        # Python lists: bisect on a list, then a list index, is several times
        # cheaper per lookup than np.searchsorted, then an array index.
        self._cuts, self._pieces = self.breakpoints.tolist(), list(self.values)

    def eval(self, t):
        return self._pieces[bisect_right(self._cuts, t)]

    def eval_left(self, t):
        return self._pieces[bisect_left(self._cuts, t)]

    def breakpoints_in(self, t0, t1):
        return self._cuts[bisect_right(self._cuts, t0) : bisect_left(self._cuts, t1)]


class ConstantInput(PiecewiseConstantInput):
    """A step signal with no cuts: the read-only ``value`` at every time."""

    def __init__(self, value):
        super().__init__([], np.atleast_1d(np.asarray(value, dtype=float))[None])
        self.value = self.values[0]


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
# Difference between the 5th-order weights and the embedded 4th-order weights.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

# Dormand-Prince 8(5,3) tableau, Hairer's DOP853 (Solving ODEs I, II.10),
# rounded to doubles.  Row 12 of _A853 is the 8th-order solution; stage 13,
# the derivative there, has weight 0 in both error estimates.
_C853 = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
         0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0)
_A853 = np.array([r + [0.0] * (13 - len(r)) for r in [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
]])
# The 8th-order weights less the 5th- and 3rd-order ones, over stages 1-12.
_E853 = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
     -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
    [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082],
])


class _Pair(NamedTuple):
    """A tableau and its step-size controller.

    ``a_dots[i]`` is the bound dot of row i's coefficients over the stages
    before it (one gemv, 0.2 µs less than ``np.dot``); the last row gives the
    solution.  ``e`` weighs the stages a step evaluates, so a pair whose
    ``e`` leaves out the solution's derivative evaluates it only once the
    step is accepted.  The controller scales the step by 1/fac, fac =
    err**expo / facold**beta clipped to [1/fac_max, 1/fac_min], with the
    constants of Hairer's DOPRI5 and DOP853 codes; beta = 0 drops the memory.
    """

    c: tuple
    a_dots: tuple
    e: np.ndarray
    expo: float
    beta: float
    fac_min: float
    fac_max: float


_DOPRI5 = _Pair(_C, tuple(_A[i, :i].dot for i in range(7)), _E, 0.2 - 0.75 * 0.04, 0.04, 0.2, 10.0)
_DOP853 = _Pair(_C853, tuple(_A853[i, :i].dot for i in range(13)), _E853, 1 / 8, 0.0, 0.333, 6.0)
_SAFETY = 0.9
# A span whose pieces average fewer than this many starting steps takes the
# 5(4) pair: on one-step pieces a 12-stage step costs 12 field calls, not 7.
_STEPS_PER_PIECE_MIN = 8


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


def _row_sums(e, h, sc_x, sc_xi, n):
    """Each row's sum of (e*h/scale)^2, as the NumPy form gives it, from Python-float lists.

    Every operation is correctly rounded elementwise, and NumPy sums a row of
    fewer than 8 entries in order from the first, as the loop here does.
    """
    sums, row, j = [], 0.0, 0
    for ej, a, b in zip(e, sc_x, sc_xi):
        q = ej * h / (a if a >= b else b)
        row += q * q
        j += 1
        if j == n:
            sums.append(row)
            row, j = 0.0, 0
    return sums


def _norm853(s5, s3, n) -> float:
    """Hairer's 8(5,3) error norm, s5 / sqrt((s5 + 0.01 s3) n), of the worst row.

    A row sum of 0 or inf is the norm itself, not 0/0 or inf/inf.  The NumPy
    form makes the same correctly rounded operations; it can differ only where
    a stage is not finite, and such a step is rejected either way.
    """
    return max(a / math.sqrt((a + 0.01 * b) * n) if 0.0 < a < math.inf else a for a, b in zip(s5, s3))


def _hinit(field, signal, t0, t_end, u_end, x0, f0, sc):
    # A batch takes its smallest state scale and its largest derivative scales.
    d0, d1 = np.min(_rms(x0 / sc)), np.max(_rms(f0 / sc))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    # The trial stays in the first piece: past it, divergence's d_3 strays 2.1e-11 from mpmath's, not 3e-13.
    trial = min(h0, t_end - t0)
    f1 = field(x0 + trial * f0, u_end if t0 + trial >= t_end else signal.eval(t0 + trial))
    d2 = np.max(_rms((f1 - f0) / sc)) / trial
    dm = max(d1, d2)
    h1 = max(1e-6, trial * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
    # Uncut, as the loop cuts steps, not proposals; a Python float, as each operation on a NumPy scalar is a call.
    return float(min(100 * h0, h1))


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
    # Stage derivatives, room for either pair, with views of the first i rows
    # for stage i's sum.
    k = np.empty((13,) + x.shape)
    k_flat = k.reshape(13, -1)
    k_heads = [k_flat[:i] for i in range(13)]
    # Buffers for a stage's sum and for the error terms (one row per
    # trajectory and estimate), each with a flat view that takes the dot
    # results.  The stage states themselves are fresh arrays, since a field
    # may keep its input.  The step length and tolerances are 0-d arrays, and
    # sc_x and sc_xi the error scales of a step's start and result (module
    # docstring): arrays, or flat lists of Python floats for a small state or
    # batch.
    acc = np.empty(x.shape)
    acc_flat = acc.reshape(-1)
    err_buf = np.empty((2, x.size // n, n))
    h_arr, rel_tol, abs_tol = np.empty(()), np.array(config.rel_tol), np.array(config.abs_tol)
    sc0 = np.abs(x) * rel_tol + abs_tol
    python_norm = x.size <= _PYTHON_NORM_MAX and n < 8
    if python_norm:
        sc_x, rel, atol = sc0.reshape(-1).tolist(), config.rel_tol, config.abs_tol
    else:
        sc, sc_x, sc_xi = np.empty(err_buf.shape[1:]), sc0, np.empty(err_buf.shape[1:])
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
            # The pair, once per call (module docstring).
            long_pieces = (t1 - t0) / (len(cuts) - 1) >= _STEPS_PER_PIECE_MIN * h
            c, a_dots, e, expo, beta, fac_min, fac_max = _DOP853 if long_pieces else _DOPRI5
            # A 1-D e is one error estimate, a 2-D one a row per estimate.
            last, evaluated, estimates = len(c) - 1, e.shape[-1], 1 if e.ndim == 1 else len(e)
            deferred, e_dot, k_step, err_vec = evaluated == last, e.dot, k_flat[:evaluated], err_buf[:estimates]
            err_out, err_rows = err_vec.reshape(e.shape[:-1] + (-1,)), err_vec.reshape(estimates, -1)
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
            # The stages at c = 1 all sit at t_next and share its input.
            u_next = u_end if t_next >= t_end else eval_u(t_next)
            for i in range(1, last + 1):
                a_dots[i](k_heads[i], out=acc_flat)
                acc *= h_arr
                xi = x + acc
                if i < evaluated:
                    k[i] = field(xi, u_next if c[i] == 1.0 else u_end if (s := t + c[i] * h_eff) >= t_end else eval_u(s))
            # xi is now the solution.  The 5(4) norm is sqrt(max over rows of
            # sum(e^2) / n): division and the square root are monotone and
            # correctly rounded, so this is bitwise the largest per-row RMS.
            # The 8(5,3) norm combines each row's two sums (_norm853).
            e_dot(k_step, out=err_out)
            if python_norm:
                xi_list = xi.ravel().tolist()
                sc_xi = [abs(v) * rel + atol for v in xi_list]
                sums = [_row_sums(row, h_eff, sc_x, sc_xi, n) for row in err_rows.tolist()]
                err = math.sqrt(max(sums[0]) / n) if estimates == 1 else _norm853(*sums, n)
                xi_finite = all(map(math.isfinite, xi_list))
            else:
                err_vec *= h_arr
                np.abs(xi, out=sc_xi)
                sc_xi *= rel_tol
                sc_xi += abs_tol
                err_vec /= np.maximum(sc_x, sc_xi, out=sc)
                err_vec *= err_vec
                sums = np.add.reduce(err_vec, axis=-1)
                if estimates == 1:
                    err = math.sqrt(float(np.maximum.reduce(sums, axis=None)) / n)
                else:
                    s5, s3 = sums
                    np.divide(s5, np.sqrt((s5 + 0.01 * s3) * n), out=s5, where=(s5 > 0.0) & (s5 < math.inf))
                    err = float(np.maximum.reduce(s5))
                xi_finite = _all_finite(xi)
            # One finiteness test over every stage the step evaluated: a step
            # with a non-finite stage is rejected once all of them are in.
            ok = _all_finite(k_step) and xi_finite and math.isfinite(err)
            if ok and deferred and err <= 1.0 and not final:
                # The new state's derivative, left out of the error estimate:
                # evaluated only for a step that stands, and not at a segment
                # end, where the next segment restarts.
                k[last] = field(xi, u_next)
                ok = _all_finite(k[last])
            if not ok:
                nonfinite_streak += 1
                h *= 0.25
                continue
            nonfinite_streak = 0
            if err <= 1.0:
                ts.append(t_next)
                xs.append(xi)
                t, x = t_next, xi
                sc_x, sc_xi = sc_xi, sc_x
                if not final:
                    k[0] = k[last]
                fac = max(1.0 / fac_max, min(1.0 / fac_min, err**expo / facold**beta / _SAFETY))
                facold = max(err, 1e-4)
                # A step cut short to land on the segment end keeps the
                # longer proposal it was cut from.
                h = max(h_eff / fac, h) if final else h_eff / fac
            else:
                h = h_eff / min(1.0 / fac_min, err**expo / _SAFETY)
    return Trajectory(np.array(ts), np.array(xs))
