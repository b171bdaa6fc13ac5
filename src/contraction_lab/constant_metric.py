"""Numerical predicates forcing a contraction metric to be constant.

When a system is contractive for each member of suitable families of
constant inputs, any certifying metric must have vanishing gradients.  The
two checkable hypotheses are geometric (the normalized field values at a
point eventually surround the origin: their convex hull contains a fixed
ball) and asymptotic (the ratio of Jacobian norm to field norm vanishes
along each input sequence).  This module evaluates both on user-supplied
sample points and reproduces the stock 3-D examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import JsonRecord
from .contraction import linear_additive_field
from .dynamics import VectorField
from .errors import NonFiniteError, ZeroFieldError
from .linalg import spectral_norm, vector_norms

__all__ = [
    "InputSequenceFamily",
    "hull_contains_ball",
    "ConstantMetricReport",
    "check_constant_metric_conditions",
    "example_3d_system",
    "simplex_directions",
    "example_additive_3d",
    "polytope_inradius",
]

DEFAULT_I_LIST = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
_RATIO_LIMIT = 1e-2
_HALVING_BAND = (0.4, 0.6)  # ratio(2i)/ratio(i) for clean 1/i decay, +-20%
_HULL_DIRECTIONS = 512


@dataclass(frozen=True)
class InputSequenceFamily:
    """k unbounded sequences of constant inputs u_{i,j}.

    ``generator(i, j)`` returns the j-th sequence's i-th member, for
    i >= 1 and 1 <= j <= k.
    """

    k: int
    generator: object

    def inputs_at(self, i: int) -> list[np.ndarray]:
        if i < 1:
            raise ValueError("sequence index starts at 1")
        return [np.atleast_1d(np.asarray(self.generator(i, j), dtype=float)) for j in range(1, self.k + 1)]


def _unit_directions(n: int, count: int) -> np.ndarray:
    """Deterministic, nearly uniform unit vectors of R^n (both of them in 1-D)."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if n == 3:  # Fibonacci sphere
        idx = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * idx / count)
        theta = np.pi * (1.0 + np.sqrt(5.0)) * idx
        return np.column_stack([np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)])
    raise ValueError("hull containment is implemented for dimensions 1-3")


def hull_contains_ball(points, rho: float) -> bool | np.ndarray:
    """Support-function test for B(0, rho) inside the convex hull of points.

    The ball lies in conv(points) iff max_p d.p >= rho for every unit
    direction d; the test samples 512 directions from a deterministic
    low-discrepancy set (uniform angles in 2-D, Fibonacci sphere in 3-D), so
    it is exact in the dense-direction limit and can only err on the
    permissive side at finite resolution.  One set ``(k, n)`` gives a bool, a
    ``(..., k, n)`` stack of sets one bool per set.  A NaN, infinite or
    non-positive ``rho`` raises ``ValueError``.
    """
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    support = np.max(_unit_directions(pts.shape[-1], _HULL_DIRECTIONS) @ np.swapaxes(pts, -1, -2), axis=-1)
    holds = np.all(support >= rho, axis=-1)
    return bool(holds) if holds.ndim == 0 else holds


def _directions_at(field: VectorField, x: np.ndarray, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Unit field directions f(x, u)/||f(x, u)|| and ratios ||df/dx(x, u)||_2 / ||f(x, u)||_2.

    One field call and one Jacobian call per input, for one state ``(n,)`` or
    a stack ``(S, n)``: ``(..., J, n)`` directions and ``(..., J)`` ratios.
    A field value of non-finite norm raises ``NonFiniteError``; a field that
    vanishes at some input raises ``ZeroFieldError`` carrying the first such
    state ``x`` and its first such 1-based input index ``j``.
    """
    values = np.stack([field(x, u) for u in inputs], axis=-2)
    norms = vector_norms(values)
    if not np.all(np.isfinite(norms)):
        raise NonFiniteError("a field value has a non-finite norm")
    if np.any(vanish := norms < 1e-14):
        s, j = divmod(int(np.argmax(vanish)), len(inputs))
        x = np.atleast_2d(x)[s]
        raise ZeroFieldError(f"field vanishes at x={x.tolist()}, u={inputs[j].tolist()}", x=x, j=j + 1)
    ratios = spectral_norm(np.stack([field.jacobian_x(x, u) for u in inputs], axis=-3)) / norms
    return values / norms[..., None], ratios


@dataclass
class ConstantMetricReport(JsonRecord):
    """Per-(x, i) hull verdicts and ratio values, with aggregate conclusions.

    For each sample point x the report records the smallest index i0 in the
    checked list from which the hull condition holds for every later index
    (None when it never stabilizes), and whether the worst Jacobian-to-field
    ratio decays like 1/i: consecutive doublings must shrink it into the
    [0.4, 0.6] band and the final value must drop below 1e-2.  The largest
    checked index is reported instead of any claim about the limit.
    """

    i_list: list[int]
    rho: float
    largest_checked_index: int
    hull_certified_from: list
    ratio_decay_ok: list
    certified: bool
    entries: list[dict]


def check_constant_metric_conditions(
    field: VectorField,
    family: InputSequenceFamily,
    x_samples,
    rho: float,
    i_list=DEFAULT_I_LIST,
) -> ConstantMetricReport:
    """Evaluate both constancy-forcing hypotheses on sample states.

    At each x and index i: (a) the normalized field values over the family
    must contain B(0, rho) in their convex hull, and (b) the worst
    Jacobian-to-field ratio is recorded.  Certification per x requires the
    hull condition to hold from some index onward and the ratios to decay
    like 1/i across the checked doublings.  No sample states, no index, or
    a ``rho`` that is not finite and positive raises ``ValueError`` before
    the field is called.
    """
    i_list = sorted(int(i) for i in i_list)
    if not i_list or i_list[0] < 1:
        raise ValueError("need indices, each >= 1")
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and positive")
    samples = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in x_samples])
    if not len(samples):
        raise ValueError("need at least one sample state")
    hulls, ratios = [], []  # per index, each sample's hull verdict and worst ratio
    for i in i_list:
        try:
            directions, input_ratios = _directions_at(field, samples, family.inputs_at(i))
        except ZeroFieldError as exc:
            exc.i = i
            raise
        hulls.append(hull_contains_ball(directions, rho))
        ratios.append(np.max(input_ratios, axis=-1))
    hulls, ratios = np.transpose(hulls), np.transpose(ratios)  # [s, c]: sample s at index i_list[c]
    entries = []
    for x, row_holds, row_ratios in zip(samples.tolist(), hulls.tolist(), ratios.tolist()):
        entries += [{"x": x, "i": i, "hull_holds": h, "max_ratio": r} for i, h, r in zip(i_list, row_holds, row_ratios)]
    # stable[s, c]: the hull condition holds at sample s at every index from i_list[c] on.
    stable = np.logical_and.accumulate(hulls[:, ::-1], axis=1)[:, ::-1]
    hull_from = [i_list[c] if ok else None for c, ok in zip(np.argmax(stable, axis=1), stable[:, -1])]
    halvings = np.divide(ratios[:, 1:], ratios[:, :-1], out=np.full_like(ratios[:, 1:], np.inf), where=ratios[:, :-1] > 0)
    in_band = (_HALVING_BAND[0] <= halvings) & (halvings <= _HALVING_BAND[1])
    decay_ok = ((ratios[:, -1] < _RATIO_LIMIT) & np.all(in_band, axis=1)).tolist()
    certified = None not in hull_from and all(decay_ok)
    return ConstantMetricReport(i_list, float(rho), i_list[-1], hull_from, decay_ok, certified, entries)


def example_3d_system():
    """Diagonal 3-D system x' = -x + B u with the four stock input sequences.

    B has columns e1, e2, e3, -(1,1,1); the j-th sequence is u_{i,j} = i e_j
    in R^4, so the normalized field values approach the four unit vectors
    whose hull surrounds the origin, while ||J||/||f|| = 1/||f|| -> 0.
    """
    bmat = np.array(
        [
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )
    eye = np.eye(3)
    field = VectorField(lambda x, u: -x + bmat @ u, 3, 4, jacobian=lambda x, u: -eye)
    family = InputSequenceFamily(k=4, generator=lambda i, j: float(i) * np.eye(4)[j - 1])
    return field, family


def simplex_directions(dim: int = 3) -> np.ndarray:
    """Unit vectors at the vertices of a regular simplex surrounding 0."""
    if dim != 3:
        raise ValueError("only the 3-D regular simplex is provided")
    v = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    )
    return v / np.sqrt(3.0)


def example_additive_3d():
    """Additive system x' = -x + c with simplex-direction input rays c = i v_j."""
    field = linear_additive_field(3)
    dirs = simplex_directions(3)
    family = InputSequenceFamily(k=4, generator=lambda i, j: float(i) * dirs[j - 1])
    return field, family


def polytope_inradius(vertices) -> float:
    """Distance from the origin to the nearest facet of a 3-D simplex hull.

    Exact for four affinely independent vertices whose hull contains the
    origin; used as the analytic oracle for :func:`hull_contains_ball`.
    """
    pts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if pts.shape != (4, 3):
        raise ValueError("expected four 3-D vertices")
    facets = np.stack([np.delete(pts, drop, axis=0) for drop in range(4)])
    normals = np.cross(facets[:, 1] - facets[:, 0], facets[:, 2] - facets[:, 0])
    return float(np.min(np.abs(np.vecdot(normals, facets[:, 0])) / vector_norms(normals)))
