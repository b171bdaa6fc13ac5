"""Flow maps on a metric space: composition, schedules, and limits.

The objects here realize the abstract picture behind uniform contraction
under switched inputs: a flow map phi(signal, t1, t2) acting on R^n with the
Euclidean distance, piecewise-constant schedules whose per-piece contraction
factors multiply to exp(lambda*(t2-t1)) exactly, and dyadic refinement of a
continuous signal by schedules, under which the contraction property passes
to the limit.

Rate convention: ``lam`` is the distance-level exponential rate (distances
shrink like exp(lam*t)).  Matrix-level certificates from the contraction
module live at the squared-distance level, so a matrix margin beta
corresponds to lam = -beta/2 here; the conversion is asserted by a
cross-module test.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from .certificates import Certificate
from .dynamics import (
    ConstantInput,
    IntegratorConfig,
    InputSignal,
    PiecewiseConstantInput,
    VectorField,
    integrate,
)
from .errors import ApproximationNotConvergingError, NonFiniteError
from .linalg import vector_norms

__all__ = [
    "FlowMap",
    "flow_from_field",
    "PiecewiseSchedule",
    "schedule_contraction_factor",
    "check_piecewise_contraction",
    "check_limit_contraction",
]


# Relative slack of the rate bound that every piecewise-constant flow must meet.
_APPROX_SLACK = 1.0 + 1e-6


def _in_box(values, box) -> np.ndarray:
    """Whether each row of ``values`` lies in the box, with slack 1e-12 (a NaN never does)."""
    box = np.atleast_2d(np.asarray(box, dtype=float)).reshape(-1, 2)
    return np.all((values >= box[:, 0] - 1e-12) & (values <= box[:, 1] + 1e-12), axis=-1)


class FlowMap:
    """Mapping (signal, t1, t2, point) -> point on R^n.

    ``apply`` takes one point ``(n,)`` or a batch ``(N, n)`` of points that
    share the signal and returns the same shape; ``apply_fn`` must map the
    rows of a batch independently.  ``apply_each`` maps the points under
    each of a list of S signals to ``(S, *points.shape)``: one ``apply`` per
    signal, or one ``apply`` for them all on a field's flow (:func:`flow_from_field`).
    Satisfies the composition law numerically: applying over [t1, t2] and
    then [t2, t3] equals applying the concatenation at t2 over [t1, t3],
    within integrator tolerance.
    """

    def __init__(self, apply_fn):
        self._apply = apply_fn

    def apply(self, signal: InputSignal, t1: float, t2: float, points) -> np.ndarray:
        points = np.atleast_1d(np.asarray(points, dtype=float))
        images = np.atleast_1d(np.asarray(self._apply(signal, float(t1), float(t2), points), dtype=float))
        if images.shape != points.shape:
            raise ValueError(f"flow mapped points of shape {points.shape} to shape {images.shape}")
        if not np.all(np.isfinite(images)):
            raise NonFiniteError("flow images have non-finite entries")
        return images

    def apply_each(self, signals: list, t1: float, t2: float, points) -> np.ndarray:
        return np.stack([self.apply(signal, t1, t2, points) for signal in signals])


class _StackedInput(InputSignal):
    """Member j's value on row block j of a lockstep batch, breaking wherever a member does.

    Step members are read once per piece between their cuts, where their values and left limits hold still."""

    def __init__(self, members, rows: int):
        self.members, self.rows, self.dim, self._piece = members, rows, members[0].dim, None
        steps = [member for member in members if isinstance(member, (PiecewiseConstantInput, ConstantInput))]
        self._cuts = sorted(set().union(*(member.breakpoints_in(-math.inf, math.inf) for member in steps)))
        self._others = [(j * rows, member) for j, member in enumerate(members) if member not in steps]

    def _lookup(self, piece, t, name):
        if piece != self._piece:
            self._piece, self._block = piece, np.repeat([getattr(m, name)(t) for m in self.members], self.rows, axis=0)
            return self._block.copy()
        out = self._block.copy()
        for start, member in self._others:
            out[start : start + self.rows] = getattr(member, name)(t)
        return out

    def eval(self, t):
        return self._lookup(bisect_right(self._cuts, t), t, "eval")

    def eval_left(self, t):
        return self._lookup(bisect_left(self._cuts, t), t, "eval_left")

    def breakpoints_in(self, t0, t1):
        return sorted(set().union(*(member.breakpoints_in(t0, t1) for member in self.members)))


class _LockstepFlow(FlowMap):
    """The flow of a field with per-row inputs: ``apply_each`` is one ``apply`` on the points tiled once per signal."""

    def apply_each(self, signals: list, t1: float, t2: float, points) -> np.ndarray:
        points = np.atleast_1d(np.asarray(points, dtype=float))
        rows = points.reshape(-1, points.shape[-1])
        images = self.apply(_StackedInput(signals, len(rows)), t1, t2, np.tile(rows, (len(signals), 1)))
        return images.reshape((len(signals),) + points.shape)


def flow_from_field(field: VectorField, config: IntegratorConfig | None = None) -> FlowMap:
    """The ODE solution operator of ``field`` as a FlowMap.

    A batch of points goes through ``integrate`` as one lockstep run.  For a
    field with per-row inputs, so do all the signals of ``apply_each``.
    """

    def apply_fn(signal, t1, t2, points):
        if not t2 > t1:
            raise ValueError("flow application requires t2 > t1")
        return integrate(field, signal, points, (t1, t2), config).final_state

    return (_LockstepFlow if field.per_row_inputs else FlowMap)(apply_fn)


class PiecewiseSchedule(PiecewiseConstantInput):
    """Constant values c_i held for fractions alpha_i of the span [t1, t2]: a step signal.

    Fractions must be positive and sum to 1 within 1e-12; they are
    renormalized exactly so the product of per-piece contraction factors
    telescopes to the full-span factor at machine precision.  Piece i
    starts at t1 + (alpha_1 + ... + alpha_{i-1}) * (t2 - t1); the span,
    values and cuts must be finite, as for any step signal.
    """

    def __init__(self, values, fractions, t1: float, t2: float):
        fracs = np.asarray(fractions, dtype=float)
        if len(fracs) != len(values) or len(fracs) == 0:
            raise ValueError("need one fraction per value")
        if np.any(fracs <= 0):
            raise ValueError("fractions must be positive")
        total = float(np.sum(fracs))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"fractions sum to {total}, expected 1 within 1e-12")
        if not -math.inf < t1 < t2 < math.inf:
            raise ValueError("span must be finite and satisfy t2 > t1")
        self.fractions, self.t1, self.t2 = fracs / total, float(t1), float(t2)
        super().__init__(self.t1 + np.cumsum(self.fractions)[:-1] * self.span, values)

    @property
    def span(self) -> float:
        return self.t2 - self.t1

    def piece_count(self) -> int:
        return self.values.shape[0]


def schedule_contraction_factor(lam: float, schedule: PiecewiseSchedule) -> float:
    """Product of per-piece factors exp(lam * alpha_i * span).

    Telescopes to exp(lam * span) in exact arithmetic; before returning, the
    identity is asserted to the larger of 1e-14 relative and the rounding
    bound of this computation.  With u = 2^-53, k pieces and L = lam * span,
    to first order in u:

    - the renormalized fractions sum to 1 within k u (k - 1 additions for
      their total, one division each), which moves the exponents' sum by
      k u |L|;
    - each exponent (lam * alpha_i) * span takes two roundings, 2 u |L| in
      all over the pieces;
    - each of the k exponentials is within one ulp, 2 u relative, and each
      of the k - 1 products adds u;
    - exp(lam * span) takes u |L| from its argument and 2 u from exp.

    So |product - exp(L)| <= u ((k + 3) |L| + 3 k + 1) exp(L).
    """
    span = schedule.span
    product = float(np.prod(np.exp(lam * schedule.fractions * span)))
    whole = float(np.exp(lam * span))
    k = schedule.piece_count()
    tol = max(1e-14, 2.0**-53 * ((k + 3) * abs(lam * span) + 3 * k + 1))
    if abs(product - whole) > tol * abs(whole):
        raise AssertionError(
            f"factor product {product!r} deviates from exp(lam*span) {whole!r} beyond {tol:.3g} relative"
        )
    return product


def _pair_array(point_pairs) -> np.ndarray:
    """The pairs (x, y) as one ``(P, 2, n)`` array: ``[:, 0]`` is x, ``[:, 1]`` is y."""
    pairs = np.asarray(point_pairs, dtype=float)
    if pairs.ndim == 2:  # pairs of scalars
        pairs = pairs[..., None]
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise ValueError("point pairs must be (x, y) pairs of points of one dimension")
    return pairs


def _gaps(pairs) -> np.ndarray:
    """d(x, y) of each pair (x, y) of a ``(..., 2, n)`` array."""
    return vector_norms(pairs[..., 0, :] - pairs[..., 1, :])


def _worst_ratio(pairs, images) -> tuple[float, int]:
    """Largest d(x', y') / d(x, y) over the pairs (x, y) at positive distance, and the first pair attaining it.

    ``images`` holds the image pairs (x', y') in the layout of ``pairs``, or a stack of them.
    """
    d0 = _gaps(pairs)
    moving = np.flatnonzero(d0 > 0)
    ratios = _gaps(images)[..., moving] / d0[moving]
    k = int(np.argmax(ratios))
    return float(ratios.flat[k]), int(moving[k % len(moving)])


def check_piecewise_contraction(
    flow: FlowMap,
    box,
    lam: float,
    schedule: PiecewiseSchedule,
    point_pairs,
) -> Certificate:
    """Verify d(phi x, phi y) <= exp(lam*span) d(x, y) for a schedule.

    ``lam`` must be a certified per-constant-input rate for inputs in
    ``box`` (for instance from a uniform contraction certificate); every
    schedule value must lie in the box.  The certificate margin is the
    worst observed ratio d(phi x, phi y) / d(x, y).
    """
    if not np.all(_in_box(schedule.values, box)):
        raise ValueError("schedule values leave the declared input box")
    pairs = _pair_array(point_pairs)
    pairs = pairs[_gaps(pairs) > 0]
    if not len(pairs):
        raise ValueError("need at least one pair of distinct points")
    bound = float(np.exp(lam * schedule.span)) * _APPROX_SLACK
    images = flow.apply(schedule, schedule.t1, schedule.t2, pairs.reshape(-1, pairs.shape[-1]))
    worst, i = _worst_ratio(pairs, images.reshape(pairs.shape))
    x, y = pairs[i].tolist()
    return Certificate(
        holds=bool(worst <= bound),
        margin=worst,
        witness={"x": x, "y": y},
        grid_spec={
            "pieces": schedule.piece_count(),
            "span": [schedule.t1, schedule.t2],
            "lam": float(lam),
            "bound": bound,
        },
    )


def _dyadic_schedule(probe_values, level: int, t1: float, t2: float) -> PiecewiseSchedule:
    """2^level equal pieces of [t1, t2], piece k holding the target's value at
    its midpoint, read from the values at ``np.linspace(t1, t2, 2^(L+2) + 1)``:
    probe (2k + 1) * 2^(L+1-level) is the same float as t1 + (k + 1/2) * (t2 - t1) / 2^level."""
    pieces = 2**level
    q = (len(probe_values) - 1) // (2 * pieces)
    return PiecewiseSchedule(probe_values[q :: 2 * q], np.full(pieces, 1.0 / pieces), t1, t2)


def check_limit_contraction(
    flow: FlowMap,
    box,
    lam: float,
    target_signal: InputSignal,
    refinement_levels: int,
    point_pairs,
    t_span,
) -> Certificate:
    """Pass the contraction property through piecewise-constant limits.

    Builds dyadic approximants of ``target_signal`` (level l: 2^l equal
    pieces, each holding the signal's midpoint value), checks that every
    approximant contracts point pairs at rate ``lam``, that the flow
    outputs are Cauchy across levels with gaps at least halving, and
    finally that the flow under the target signal itself contracts at rate
    ``lam`` with relative slack 1e-4.  All levels and the target go to the
    flow in one ``apply_each`` call.
    """
    t1, t2 = float(t_span[0]), float(t_span[1])
    if not t2 > t1:
        raise ValueError("t_span must satisfy t2 > t1")
    if refinement_levels < 1:
        raise ValueError("need at least one refinement level")
    probes = np.linspace(t1, t2, 4 * 2**refinement_levels + 1)
    probe_values = np.stack([np.atleast_1d(target_signal.eval(t)) for t in probes])
    inside = _in_box(probe_values, box)
    if not np.all(inside):
        raise ValueError(f"target signal leaves the input box at t={probes[np.argmin(inside)]}")
    pairs = _pair_array(point_pairs)
    if not np.any(_gaps(pairs) > 0):
        raise ValueError("need at least one pair of distinct points")

    signals = [_dyadic_schedule(probe_values, level, t1, t2) for level in range(refinement_levels + 1)]
    images = flow.apply_each(signals + [target_signal], t1, t2, pairs.reshape(-1, pairs.shape[-1]))
    levels, target = images[:-1].reshape(-1, *pairs.shape), images[-1].reshape(pairs.shape)
    worst_approx, _ = _worst_ratio(pairs, levels)
    # The largest move of any point from each level to the next.
    gaps = np.max(vector_norms(levels[:-1] - levels[1:]), axis=(1, 2))
    stalls = (gaps[1:] > 0.625 * gaps[:-1]) & (gaps[1:] > 1e-9)
    if np.any(stalls):
        level = int(np.argmax(stalls)) + 1
        raise ApproximationNotConvergingError(
            f"Cauchy gap {gaps[level]:.3e} at level {level + 1} fails to halve "
            f"(previous {gaps[level - 1]:.3e})"
        )

    tail = float(np.max(vector_norms(levels[-1] - target)))
    if tail > max(2.0 * gaps[-1], 1e-8):
        raise ApproximationNotConvergingError(
            f"approximant outputs stop {tail:.3e} away from the target flow "
            f"(last Cauchy gap {gaps[-1]:.3e})"
        )

    bound = float(np.exp(lam * (t2 - t1)))
    worst_target, i = _worst_ratio(pairs, target)
    holds = worst_approx <= bound * _APPROX_SLACK and worst_target <= bound * (1.0 + 1e-4)
    x, y = pairs[i].tolist()
    return Certificate(
        holds=bool(holds),
        margin=worst_target,
        witness={"x": x, "y": y},
        grid_spec={
            "refinement_levels": int(refinement_levels),
            "cauchy_gaps": gaps.tolist(),
            "tail_gap": tail,
            "span": [t1, t2],
            "lam": float(lam),
        },
        note="margin is the worst pairwise ratio under the target signal",
    )
