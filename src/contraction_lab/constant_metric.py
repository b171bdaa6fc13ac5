"""Numerical predicates forcing a contraction metric to be constant.

When a system is contractive for each member of suitable families of
constant inputs, any certifying metric must have vanishing gradients.  The
two checkable hypotheses are geometric (the normalized field values at a
point eventually surround the origin: their convex hull contains a fixed
ball) and asymptotic (the ratio of Jacobian norm to field norm vanishes
along each input sequence).  This module evaluates both on user-supplied
sample points and reproduces the stock 3-D examples.  The hull condition is
decided exactly in 1-3 dimensions, by the signed distance from the origin to
the nearest facet of the hull (:func:`polytope_inradius`).
"""

from __future__ import annotations

import itertools
import math
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
_HULL_TABLE_MAX = 2**24  # facet heights (sets x k x C(k, n)), 128 MB of float64


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


def polytope_inradius(points) -> float | np.ndarray:
    """Signed distance from the origin to the nearest facet of conv(points).

    Positive exactly when the origin is interior: then it is the radius of
    the largest ball B(0, r) inside the hull.  Each n-subset of the k points
    in R^n (n = 1, 2, 3) spans a candidate hyperplane, with the closed-form
    normal of its dimension (1, the perpendicular of the 2-D edge, the 3-D
    cross product); it is a facet when every point lies on one side of it
    within 1e-12 of the largest point norm, and its signed distance is the
    origin's depth behind it.  A flat set gives a value <= 0, and a set that
    spans no hyperplane, the empty set included, -inf.  One set ``(k, n)``
    (a ``(n,)`` input is one point) gives a float, a ``(..., k, n)`` stack
    of sets one value per set.  Another dimension, or a height table of more
    than 2^24 entries (sets x k x C(k, n)), raises ``ValueError`` before any
    table is built; a non-finite point raises ``NonFiniteError``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k, n = pts.shape[-2:]
    if not 1 <= n <= 3:
        raise ValueError("hull containment is implemented for dimensions 1-3")
    if (entries := math.prod(pts.shape[:-2]) * k * math.comb(k, n)) > _HULL_TABLE_MAX:
        raise ValueError(f"{k} points in {n}-D need {entries} facet heights, more than {_HULL_TABLE_MAX}")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteError("a hull point is not finite")
    faces = pts[..., np.array(list(itertools.combinations(range(k), n)), dtype=int).reshape(-1, n), :]
    if n == 1:
        normals = np.ones_like(faces[..., 0, :])
    elif n == 2:
        normals = np.stack([faces[..., 1, 1] - faces[..., 0, 1], faces[..., 0, 0] - faces[..., 1, 0]], axis=-1)
    else:
        normals = np.cross(faces[..., 1, :] - faces[..., 0, :], faces[..., 2, :] - faces[..., 0, :])
    lengths = vector_norms(normals)  # 0 where the n points span no hyperplane
    offsets = np.vecdot(normals, faces[..., 0, :])
    heights = normals @ np.swapaxes(pts, -1, -2) - offsets[..., None]  # (..., F, k), times each normal's length
    slack = 1e-12 * np.max(vector_norms(pts), axis=-1, initial=0.0)[..., None, None] * lengths[..., None]
    offsets = offsets / np.where(lengths > 0, lengths, np.inf)
    # A facet has every point below it (outward normal +normal) or above it (-normal); a flat set has both.
    outward = np.stack([np.all(heights <= slack, axis=-1), np.all(heights >= -slack, axis=-1)]) & (lengths > 0)
    radius = np.min(np.where(outward, [offsets, -offsets], np.inf), axis=(0, -1), initial=np.inf)
    radius = np.where(radius < np.inf, radius, -np.inf)  # no facet: the hull has no interior
    return float(radius) if radius.ndim == 0 else radius


def hull_contains_ball(points, rho: float) -> bool | np.ndarray:
    """Whether B(0, rho) lies inside the convex hull of points.

    Exact up to the facet tolerance of :func:`polytope_inradius`: the ball
    fits iff that signed facet distance is at least ``rho``.  One set
    ``(k, n)`` gives a bool, a ``(..., k, n)`` stack of sets one bool per
    set.  A NaN, infinite or non-positive ``rho`` raises ``ValueError``.
    """
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and positive")
    holds = np.asarray(polytope_inradius(points)) >= rho
    return bool(holds) if holds.ndim == 0 else holds


def _directions_at(field: VectorField, x: np.ndarray, inputs, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit field directions f(x, u)/||f(x, u)|| and ratios ||df/dx(x, u)||_2 / ||f(x, u)||_2.

    One field call and one Jacobian call per input, for one state ``(n,)`` or
    a stack ``(S, n)``: ``(..., J, n)`` directions and ``(..., J)`` ratios.
    A field value of non-finite norm raises ``NonFiniteError``; a field that
    vanishes at some input raises ``ZeroFieldError`` carrying the sequence
    index ``i`` of the inputs, the first such state ``x`` and its first such
    1-based input index ``j``.
    """
    values = np.stack([field(x, u) for u in inputs], axis=-2)
    norms = vector_norms(values)
    if not np.all(np.isfinite(norms)):
        raise NonFiniteError("a field value has a non-finite norm")
    if np.any(vanish := norms < 1e-14):
        s, j = divmod(int(np.argmax(vanish)), len(inputs))
        x = np.atleast_2d(x)[s]
        raise ZeroFieldError(f"field vanishes at x={x.tolist()}, u={inputs[j].tolist()}", x=x, i=i, j=j + 1)
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
) -> ConstantMetricReport:
    """Evaluate both constancy-forcing hypotheses on sample states.

    At each x and each index i of ``DEFAULT_I_LIST`` (1, 2, 4, ..., 1024):
    (a) the normalized field values over the family must contain B(0, rho)
    in their convex hull, and (b) the worst Jacobian-to-field ratio is
    recorded.  Certification per x requires the hull condition to hold from
    some index onward and the ratios to decay like 1/i across the checked
    doublings.  No sample states, or a ``rho`` that is not finite and
    positive, raises ``ValueError`` before the field is called.
    """
    i_list = list(DEFAULT_I_LIST)
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and positive")
    samples = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in x_samples])
    if not len(samples):
        raise ValueError("need at least one sample state")
    # Each index's unit field values (S, J, n) and ratios (S, J), stacked as [s, c, ...]: index i_list[c].
    per_index = [_directions_at(field, samples, family.inputs_at(i), i) for i in i_list]
    directions, ratios = (np.stack(tables, axis=1) for tables in zip(*per_index))
    hulls, ratios = hull_contains_ball(directions, rho), np.max(ratios, axis=-1)
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
    field = VectorField(lambda x, u: -x + bmat @ u, 3, 4, jacobian=lambda x, u: -eye, input_affine=True)
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
