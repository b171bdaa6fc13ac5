"""Riemannian contraction-metric machinery.

A metric M(x) certifies contraction of x' = f(x, c) on a region when
J^T M + M J + Mdot is uniformly negative definite, where J is the state
Jacobian and Mdot has entries grad(M_ij) . f.  This module builds that
matrix, certifies the inequality over grids (optionally uniformly over a
box of constant inputs), searches for constant inputs that destroy
contraction when the metric is non-constant, and constructs the bounded-
input metric M(x) = 1 + exp(-x^2/m) that survives additive inputs from a
bounded set.

All region certificates are grid-based: the certificate records the grid,
and resolution is the caller's precision statement, not a proof of the
continuum claim.  The one exact axis is the input box of a field declared
affine in its input, which is decided at the box's vertices.  A certificate
assembles its matrices as one stack (field and Jacobian once per input over
all (N, n) grid states, M and grad M once over the same stack) and reduces
its rows with one eigenvalue call.  A metric that is not symmetric and
positive definite at every grid state is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certificates import Certificate
from .counterexample import radial_f, radial_f_slope
from .dynamics import VectorField, _central_difference
from .errors import DimensionMismatchError, MetricAppearsConstantError, NonFiniteError
from .linalg import _float_if_scalar, max_eigenvalue, symmetric_eigenvalues, symmetric_part, vector_norms

__all__ = [
    "RiemannianMetric",
    "contraction_matrix",
    "scalar_metric",
    "scalar_metric_derivative",
    "scalar_example_system",
    "linear_additive_field",
    "bounded_example_metric",
    "check_contraction_region",
    "check_uniform_contraction",
    "ViolatingInput",
    "find_violating_input",
    "bounded_metric_m_parameter",
]

class RiemannianMetric:
    """Position-dependent symmetric matrix M(x) with entrywise gradients.

    ``eval`` and ``grad`` take one state ``(n,)`` or a stack ``(N, n)`` and
    return M as ``(n, n)`` or ``(N, n, n)`` and grad M as ``(n, n, n)`` or
    ``(N, n, n, n)``, entry ``[..., i, j, k]`` being dM_ij/dx_k; a state of
    another shape, or a result of any other shape, raises ``ValueError``.
    :meth:`constant` and :meth:`from_scalar` evaluate a whole stack in one
    call; the callables given to this constructor take one state each:

    ``eval_fn``    : x -> (n, n) symmetric matrix, called once per state
    ``grad_fn``    : x -> (n, n, n) array, entry [i, j] the gradient of M_ij,
                     called once per state (central finite differences with
                     step 1e-6 over the whole stack when omitted)
    ``lower_bound``: a > 0 with v^T M(x) v >= a ||v||^2, asserted by the caller
    """

    def __init__(self, dim: int, eval_fn, grad_fn=None, lower_bound: float = 1.0, name: str = ""):
        if not (np.isfinite(lower_bound) and lower_bound > 0):
            raise ValueError("uniform lower bound must be finite and positive")
        self.dim = int(dim)
        # Stack evaluators, (N, n) -> (N, n, n) and (N, n, n, n).
        self._eval = _per_state(eval_fn)
        self._grad = None if grad_fn is None else _per_state(grad_fn)
        self.lower_bound = float(lower_bound)
        self.name = name

    def eval(self, x) -> np.ndarray:
        return self._apply(self._eval, x, 2)

    def grad(self, x) -> np.ndarray:
        if self._grad is not None:
            return self._apply(self._grad, x, 3)
        return _central_difference(self.eval, np.atleast_1d(np.asarray(x, dtype=float)), self.dim)

    def _apply(self, stack_fn, x, rank: int) -> np.ndarray:
        """``stack_fn`` on the states ``x``, checked to give ``rank`` axes of length n per state."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > 2 or x.shape[-1] != self.dim:
            raise ValueError(f"a metric of dimension {self.dim} takes states (n,) or (N, n), not {x.shape}")
        states = x.reshape(-1, self.dim)
        out = np.asarray(stack_fn(states), dtype=float)
        shape = (len(states),) + (self.dim,) * rank
        if out.shape != shape:
            raise ValueError(f"metric returned shape {out.shape} for {len(states)} states, expected {shape}")
        return out.reshape(x.shape[:-1] + shape[1:])

    @classmethod
    def _of_stacks(cls, dim: int, eval_stack, grad_stack, lower_bound: float) -> "RiemannianMetric":
        """A metric whose two callables each evaluate a whole (N, n) stack in one call."""
        metric = cls(dim, None, None, lower_bound)
        metric._eval, metric._grad = eval_stack, grad_stack
        return metric

    @classmethod
    def constant(cls, matrix) -> "RiemannianMetric":
        """M(x) = ``matrix`` with zero gradient, bounded below by its symmetric part's least eigenvalue."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        dim = matrix.shape[0]
        zero = np.zeros((dim, dim, dim))
        return cls._of_stacks(
            dim,
            lambda xs: np.broadcast_to(matrix, (len(xs),) + matrix.shape),
            lambda xs: np.broadcast_to(zero, (len(xs),) + zero.shape),
            max_eigenvalue(-symmetric_part(matrix)) * -1.0,
        )

    @classmethod
    def from_scalar(cls, m_fn, m_prime_fn=None, lower_bound: float = 1.0) -> "RiemannianMetric":
        """1-D metric M(x) = m(x) with derivative m'(x).

        ``m_fn`` and ``m_prime_fn`` are applied elementwise to the ``(N,)``
        column of a stack's states, once per stack; a scalar result is
        broadcast over the stack.  Without ``m_prime_fn`` the gradient is a
        central difference of ``m_fn`` over the whole stack.
        """

        def column(fn, rank):
            def stack(xs):
                out = np.broadcast_to(np.asarray(fn(xs[:, 0]), dtype=float), (len(xs),))
                return out.reshape((len(xs),) + (1,) * rank)

            return stack

        grad = None if m_prime_fn is None else column(m_prime_fn, 3)
        return cls._of_stacks(1, column(m_fn, 2), grad, lower_bound)


def _per_state(fn):
    """Stack evaluator that calls the one-state callable ``fn`` once per row."""
    return lambda xs: np.array([fn(x) for x in xs], dtype=float)


def _check_dimensions(field: VectorField, metric: RiemannianMetric, state_dim: int, input_dim: int) -> None:
    if state_dim != field.state_dim or metric.dim != field.state_dim:
        raise DimensionMismatchError(
            f"state dim {state_dim}, field dim {field.state_dim}, metric dim {metric.dim}"
        )
    if input_dim != field.input_dim:
        raise DimensionMismatchError(f"input dim {input_dim}, field expects {field.input_dim}")


def _contraction_stack(field: VectorField, metric: RiemannianMetric, states: np.ndarray, inputs: np.ndarray):
    """Symmetrized J^T M + M J + Mdot as a (K, N, n, n) stack, and M as (N, n, n).

    K inputs by N states, input slowest: the field and its Jacobian are
    called once per input on the whole state stack, M and grad M once on the
    whole stack.  A wrong-shaped result raises ValueError instead of broadcasting.
    Unchecked: the caller validated the dimensions.
    """
    m, grad = metric.eval(states), metric.grad(states)
    jac = np.stack([field.jacobian_x(states, c) for c in inputs])
    f = np.stack([field(states, c) for c in inputs])
    a = np.swapaxes(jac, -1, -2) @ m + m @ jac + (grad @ f[..., None, :, None])[..., 0]
    return (a + np.swapaxes(a, -1, -2)) / 2.0, m


def contraction_matrix(field: VectorField, metric: RiemannianMetric, x, c) -> np.ndarray:
    """Symmetrized J^T M + M J + Mdot at state x under constant input c."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    _check_dimensions(field, metric, x.shape[0], c.shape[0])
    sym = _contraction_stack(field, metric, x[None], c[None])[0][0, 0]
    if not np.all(np.isfinite(sym)):
        raise NonFiniteError("contraction matrix has non-finite entries")
    return sym


def scalar_metric(x):
    """m(x) = 1/(sin(x^2)/2 - 1)^2; bounded within (4/9, 4]."""
    x = np.asarray(x, dtype=float)
    return _float_if_scalar(1.0 / (0.5 * np.sin(x * x) - 1.0) ** 2)


def scalar_metric_derivative(x):
    """m'(x) = 16 x cos(x^2) / (2 - sin(x^2))^3."""
    x = np.asarray(x, dtype=float)
    return _float_if_scalar(16.0 * x * np.cos(x * x) / (2.0 - np.sin(x * x)) ** 3)


def scalar_example_system():
    """1-D additive system x' = x sin(x^2)/2 - x + u with its stock metric.

    The metric certifies contraction of the unforced dynamics at rate 1/3
    but is destroyed by suitable constant inputs; see
    :func:`check_contraction_region` and :func:`find_violating_input`.
    """
    field = VectorField(
        lambda x, u: radial_f(x) + u,
        1,
        1,
        jacobian=lambda x, u: radial_f_slope(x)[..., None],
        per_row_inputs=True,
        input_affine=True,
    )
    metric = RiemannianMetric.from_scalar(scalar_metric, scalar_metric_derivative, lower_bound=4.0 / 9.0)
    return field, metric


def linear_additive_field(dim: int = 1) -> VectorField:
    """x' = -x + u in the given dimension."""
    eye = np.eye(dim)
    # u - x is -x + u bit for bit, signed zeros included, in one NumPy call.
    return VectorField(
        lambda x, u: u - x, dim, dim, jacobian=lambda x, u: -eye, per_row_inputs=True, input_affine=True
    )


def _axes(region, resolution):
    region = np.atleast_2d(np.asarray(region, dtype=float))
    counts = np.atleast_1d(np.asarray(resolution, dtype=int))
    if counts.shape[0] == 1 and region.shape[0] > 1:
        counts = np.repeat(counts, region.shape[0])
    if counts.shape[0] != region.shape[0]:
        raise ValueError("resolution must give one count per region axis")
    if np.any(counts < 1):
        raise ValueError("resolution counts must be >= 1")
    if not np.all(np.isfinite(region)):
        raise ValueError("region bounds must be finite")
    axes = []
    for (lo, hi), n in zip(region, counts):
        if hi < lo:
            raise ValueError("region bounds must satisfy lo <= hi")
        axes.append(np.linspace(lo, hi, int(n)) if n > 1 else np.array([(lo + hi) / 2.0]))
    return region, counts, axes


def _grid_points(axes) -> np.ndarray:
    """Every grid point as one row of an (N, n) array, first axis slowest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _region_certificate(field, metric, region, resolution, beta: float, inputs: np.ndarray) -> Certificate:
    """Largest lambda_max(contraction matrix + beta*M) over the (input, state)
    rows, input slowest, witnessed by its first row; dimensions checked first."""
    region, counts, axes = _axes(region, resolution)
    _check_dimensions(field, metric, region.shape[0], inputs.shape[1])
    states = _grid_points(axes)
    sym, m = _contraction_stack(field, metric, states, inputs)
    values = max_eigenvalue((sym + beta * m).reshape(-1, metric.dim, metric.dim))
    # A margin certifies nothing unless M is symmetric positive definite at every state.
    lowest = symmetric_eigenvalues(m)[:, 0]
    if not np.all(lowest > 0):
        raise ValueError(f"metric is not positive definite at x={states[np.argmin(lowest > 0)].tolist()}")
    row = int(np.argmax(values))
    k, i = divmod(row, len(states))
    return Certificate(
        holds=bool(values[row] <= 0.0),
        margin=float(values[row]),
        witness={"x": states[i].tolist(), "c": inputs[k].tolist()},
        grid_spec={
            "lo": region[:, 0].tolist(),
            "hi": region[:, 1].tolist(),
            "counts": counts.tolist(),
            "beta": float(beta),
        },
    )


def check_contraction_region(
    field: VectorField,
    metric: RiemannianMetric,
    region,
    resolution,
    beta: float,
    c,
) -> Certificate:
    """Evaluate lambda_max(contraction matrix + beta*M) on a state grid.

    Holds iff the value is <= 0 at every grid point; the margin is the
    largest value seen and the witness the first grid point attaining it.
    A negative or non-finite ``beta`` raises ``ValueError``; dimensions are
    checked once, before any field or metric call (``DimensionMismatchError``);
    a non-finite value raises ``NonFiniteError``, an asymmetric M ``NonSymmetricError``.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and nonnegative")
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return _region_certificate(field, metric, region, resolution, beta, c[None])


def check_uniform_contraction(
    field: VectorField,
    metric: RiemannianMetric,
    input_box,
    input_resolution,
    region,
    resolution,
    beta: float,
) -> Certificate:
    """Contraction certificate uniform over a box of constant inputs.

    Evaluates lambda_max(contraction matrix + beta*M) at every (constant
    input, state) pair of the two grids; the witness is the first maximum,
    input slowest.  A non-positive or non-finite ``beta`` raises
    ``ValueError``.  When the certificate holds, the same margin applies to
    arbitrary (measurable, box-valued) input signals, because the input
    enters the contraction matrix only through its pointwise value; the note
    records that entailment.

    For a field declared ``input_affine`` the inputs are the box's vertices,
    each evaluated once (an axis with lo == hi has one), whatever
    ``input_resolution`` asks for; it is still validated.  There J and Mdot,
    hence the contraction matrix + beta*M, are affine in the input at each
    state, and lambda_max is convex, so its maximum over the box is at a
    vertex: the input axis is exact, and only the state grid is sampled.  Any
    other field keeps the input grid.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and positive")
    input_box, input_counts, input_axes = _axes(input_box, input_resolution)
    if input_box.shape[0] != field.input_dim:
        raise DimensionMismatchError("input box dimension must match the input dimension")
    scope = "holds uniformly over sampled constant inputs"
    if field.input_affine:
        # Each axis's distinct ends (np.unique would import numpy.ma, 0.9 MB).
        input_axes = [bounds[: 2 if bounds[0] < bounds[1] else 1] for bounds in input_box]
        input_counts = np.array([len(axis) for axis in input_axes])
        scope = (
            "inputs are the box's vertices: f is affine in u, so lambda_max(contraction "
            "matrix + beta*M) is convex in u and peaks over the box at a vertex, and the "
            "margin covers every constant input in the box at each grid state"
        )
    cert = _region_certificate(field, metric, region, resolution, beta, _grid_points(input_axes))
    return replace(
        cert,
        grid_spec={
            "input_lo": input_box[:, 0].tolist(),
            "input_hi": input_box[:, 1].tolist(),
            "input_counts": input_counts.tolist(),
            "state_grid": cert.grid_spec,
        },
        note=f"{scope}; for additive dynamics this extends at the same rate to every input signal "
        "taking values in the box",
    )


@dataclass(frozen=True)
class ViolatingInput:
    c: np.ndarray
    x: np.ndarray
    z: np.ndarray
    value: float


# Most (x, c0, z) scores the violating-input search holds at once (2 MiB),
# enough for a 2-D search in one block.
_SCORE_BLOCK = 1 << 18
# Random unit vectors the search draws for c0, and again for z.
_UNIT_SAMPLES = 16
# Grid points per axis of the search box.
_X_RESOLUTION = 21


def find_violating_input(field: VectorField, metric: RiemannianMetric, x_search, seed: int = 0) -> ViolatingInput:
    """Constant input destroying contraction for a non-constant metric.

    Constructive search: find a state x, direction c0 and vector z with
    alpha = z^T Mdot2 z != 0 where Mdot2 has entries grad(M_ij) . c0; flip
    the sign of c0 so alpha > 0; then scale c = N c0, doubling N until
    N*alpha exceeds |z^T (J^T M + M J + Mdot1) z|, which makes the quadratic
    form positive.  Requires an additive-shaped system (input_dim ==
    state_dim).

    The candidates are the grid of 21 points per axis of ``x_search`` for x
    (first axis slowest), the unit vectors followed by 16 random unit
    directions for c0, and the unit vectors followed by 16 random unit
    vectors for z, all drawn from ``seed``.  The winner is the first triple
    attaining the largest |alpha| in the order x slowest, then c0, then z.
    Raises ``NonFiniteError`` when a sampled metric gradient, or the
    winner's alpha or unforced quadratic form, is not finite.
    """
    n = field.state_dim
    if field.input_dim != n:
        raise DimensionMismatchError("violating-input search needs input_dim == state_dim")
    region, _, axes = _axes(x_search, _X_RESOLUTION)
    if region.shape[0] != n:
        raise DimensionMismatchError("x_search must have one (lo, hi) pair per state dimension")

    xs = _grid_points(axes)
    grads = metric.grad(xs)
    if not np.all(np.isfinite(grads)):
        raise NonFiniteError("a sampled metric gradient has non-finite entries")
    grad_scale = float(np.max(np.abs(grads)))
    if grad_scale < 1e-10:
        raise MetricAppearsConstantError(
            f"all sampled metric gradients are below 1e-10 (max {grad_scale:.3e})"
        )

    rng = np.random.default_rng(seed)

    def unit_samples(count):
        v = rng.normal(size=(count, n))
        return np.concatenate([np.eye(n), v / vector_norms(v)[:, None]])

    c_dirs = unit_samples(_UNIT_SAMPLES)
    zs = unit_samples(_UNIT_SAMPLES)
    zz = np.einsum("zi,zj->ijz", zs, zs).reshape(n * n, len(zs))  # column z is z (x) z

    # The peak |alpha| over (c0, z) of each state, a block of states at a
    # time so at most _SCORE_BLOCK scores are held, in place and over flat
    # rows (a second block-sized array, or a max over two axes, costs more
    # than the products).  The winner is the first state with the largest
    # peak, then its first maximum: one flat argmax's, a NaN included.
    grads_t = np.swapaxes(grads.reshape(len(xs), n * n, n), -1, -2)
    per_block = max(1, _SCORE_BLOCK // (len(c_dirs) * len(zs)))
    peaks = np.empty(len(xs))
    for lo in range(0, len(xs), per_block):
        scores = c_dirs @ grads_t[lo : lo + per_block] @ zz
        np.abs(scores, out=scores)
        peaks[lo : lo + per_block] = scores.reshape(len(scores), -1).max(axis=1)
    i = int(np.argmax(peaks))
    kc, kz = np.unravel_index(np.argmax(np.abs(c_dirs @ grads_t[i] @ zz)), (len(c_dirs), len(zs)))
    x, g, c0, z = xs[i], grads[i], c_dirs[kc], zs[kz]
    alpha = float(z @ (g @ c0) @ z)
    if abs(alpha) < 1e-12:
        raise MetricAppearsConstantError("no sampled direction produces a nonzero metric drift")
    if alpha < 0:
        c0 = -c0
        alpha = -alpha

    zero = np.zeros(n)
    jac = field.jacobian_x(x, zero)
    m = metric.eval(x)
    mdot1 = g @ field(x, zero)
    beta_val = float(z @ (jac.T @ m + m @ jac + mdot1) @ z)
    if not (np.isfinite(alpha) and np.isfinite(beta_val)):
        raise NonFiniteError(f"violation terms are not finite at x={x.tolist()}: alpha {alpha}, form {beta_val}")

    big_n = 1.0
    while not big_n * alpha > abs(beta_val):
        big_n *= 2.0
    return ViolatingInput(c=big_n * c0, x=x, z=z, value=beta_val + big_n * alpha)


def _bump(x, m: float):
    """eps(x) = exp(-x^2/m) and eps'(x) = -2x/m eps(x)."""
    eps = np.exp(-x * x / m)
    return eps, -2.0 * x / m * eps


def bounded_example_metric(m: float) -> RiemannianMetric:
    """Non-constant 1-D metric M(x) = 1 + exp(-x^2/m)."""
    if not (np.isfinite(m) and m > 0):
        raise ValueError("m must be finite and positive")
    return RiemannianMetric.from_scalar(lambda x: 1.0 + _bump(x, m)[0], lambda x: _bump(x, m)[1], lower_bound=1.0)


_TAIL_MULTIPLE = 10.0
_BOUNDED_GRID = 40001
_MAX_M_DOUBLINGS = 60


def bounded_metric_m_parameter(bound_B: float) -> tuple[float, Certificate]:
    """Smallest power-of-two m making 1 + exp(-x^2/m) a contraction metric
    for x' = -x + u with |u| <= bound_B at rate 1.

    The certified inequality is |(c - x) eps'(x)| <= 1 + eps(x) for all
    |c| <= bound_B with eps(x) = exp(-x^2/m).  Since the left side is linear
    in c, checking the endpoint inputs suffices; the grid covers
    |x| <= 10*sqrt(m) and an analytic envelope bounds the tail, where
    2|x|(|x| + B) exp(-x^2/m)/m is decreasing and astronomically small.
    """
    if not np.isfinite(bound_B) or bound_B < 0:
        raise ValueError("bound_B must be finite and nonnegative")
    m = 1.0
    for _ in range(_MAX_M_DOUBLINGS):
        half_width = _TAIL_MULTIPLE * np.sqrt(m)
        xs = np.linspace(-half_width, half_width, _BOUNDED_GRID)
        eps, eps_prime = _bump(xs, m)
        worst = max(float(np.max(np.abs((c - xs) * eps_prime) - (1.0 + eps))) for c in (-bound_B, 0.0, bound_B))
        y = _TAIL_MULTIPLE  # scaled tail coordinate |x|/sqrt(m)
        tail_bound = (2 * y * y + 2 * y * bound_B / np.sqrt(m)) * np.exp(-y * y)
        if worst <= 0.0 and tail_bound <= 1.0:
            cert = Certificate(
                holds=True,
                margin=worst,
                witness=None,
                grid_spec={
                    "lo": [-float(half_width)],
                    "hi": [float(half_width)],
                    "counts": [_BOUNDED_GRID],
                    "inputs": [-float(bound_B), 0.0, float(bound_B)],
                },
                note=(
                    f"analytic tail bound {tail_bound:.3e} <= 1 for |x| >= {half_width:g}; "
                    "endpoint inputs dominate by linearity in c"
                ),
            )
            return m, cert
        m *= 2.0
    raise RuntimeError("no admissible m found; bound_B may be astronomically large")
