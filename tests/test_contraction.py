import math

import numpy as np
import pytest

from contraction_lab import contraction, linalg
from contraction_lab.contraction import (
    RiemannianMetric,
    bounded_example_metric,
    bounded_metric_m_parameter,
    check_contraction_region,
    check_uniform_contraction,
    contraction_matrix,
    find_violating_input,
    linear_additive_field,
    scalar_metric,
    scalar_metric_derivative,
)
from contraction_lab.dynamics import PiecewiseConstantInput, VectorField, integrate
from contraction_lab.errors import DimensionMismatchError, MetricAppearsConstantError, NonFiniteError, NonSymmetricError
from contraction_lab.linalg import max_eigenvalue

X_PAPER = 4.0 * math.sqrt(2.0 * math.pi)
BETA = 1.0 / 3.0


def coupled_metric(n):
    """M(x) = 3 I + sin(x_i + x_j)/2: every entry depends on the state."""
    eye = np.eye(n)

    def evaluate(x):
        return 3.0 * eye + 0.5 * np.sin(x[:, None] + x[None, :])

    def gradient(x):
        return 0.5 * np.cos(x[:, None] + x[None, :])[:, :, None] * (eye[:, None, :] + eye[None, :, :])

    return RiemannianMetric(n, evaluate, gradient, lower_bound=2.0, name="coupled sine metric")


def twisted_field():
    """x' = -x + u * tanh(reversed x): off-diagonal, input-dependent Jacobian."""

    def jacobian(x, u):
        sech2 = 1.0 - np.tanh(x[..., ::-1]) ** 2
        jac = np.full(x.shape + (2,), -1.0)
        jac[..., 0, 1], jac[..., 1, 0] = u[0] * sech2[..., 0], u[1] * sech2[..., 1]
        return jac

    return VectorField(lambda x, u: -x + u * np.tanh(x[..., ::-1]), 2, 2, jacobian=jacobian)


def log_calls(log, name, fn):
    """``fn`` that appends (name, shape of its first argument) to ``log`` per call."""

    def call(x, *rest):
        log.append((name, np.shape(x)))
        return fn(x, *rest)

    return call


def recorded(field, metric):
    """Copies of field and metric that log (callable, state shape) per call."""
    log = []
    field = VectorField(
        log_calls(log, "field", field),
        field.state_dim,
        field.input_dim,
        jacobian=log_calls(log, "jacobian", field.jacobian_x),
    )
    metric = RiemannianMetric(metric.dim, log_calls(log, "eval", metric.eval), log_calls(log, "grad", metric.grad))
    return field, metric, log


def grid_rows(box, count):
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))


def reference_values(field, metric, states, inputs, beta):
    """The per-point arithmetic a stacked certificate must match bit for bit, input slowest."""
    values = []
    for c in inputs:
        for x in states:
            jac, m = field.jacobian_x(x, c), metric.eval(x)
            a = jac.T @ m + m @ jac + metric.grad(x) @ field(x, c)
            values.append(max_eigenvalue((a + a.T) / 2.0 + beta * m))
    return np.array(values)


# Both grid certificates on the unit box of the system's dimensions.
CHECKS = {
    "region": lambda field, metric, beta=BETA: check_contraction_region(
        field, metric, [(-1.0, 1.0)] * field.state_dim, 3, beta, [0.5] * field.input_dim
    ),
    "uniform": lambda field, metric, beta=BETA: check_uniform_contraction(
        field, metric, [(-1.0, 1.0)] * field.input_dim, 3, [(-1.0, 1.0)] * field.state_dim, 3, beta
    ),
}


def reference_violating_input(field, metric, x_search, x_resolution, seed, z_search=16, c_direction_samples=16):
    """The streaming (x, c0, z) triple loop that find_violating_input must match exactly."""
    n = field.state_dim
    axes = [np.linspace(lo, hi, x_resolution) for lo, hi in np.asarray(x_search, dtype=float).reshape(-1, 2)]
    xs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    rng = np.random.default_rng(seed)

    def unit_samples(count):
        vecs = [np.eye(n)[i] for i in range(n)]
        for _ in range(count):
            v = rng.normal(size=n)
            vecs.append(v / np.linalg.norm(v))
        return vecs

    c_dirs = unit_samples(c_direction_samples)
    zs = unit_samples(z_search)
    best = None
    for x in xs:
        g = metric.grad(x)
        for c0 in c_dirs:
            mdot2 = g @ c0
            for z in zs:
                alpha = float(z @ mdot2 @ z)
                if best is None or abs(alpha) > best[0]:
                    best = (abs(alpha), x, g, c0, z, alpha)
    _, x, g, c0, z, alpha = best
    if alpha < 0:
        c0, alpha = -c0, -alpha
    zero = np.zeros(n)
    jac = field.jacobian_x(x, zero)
    m = metric.eval(x)
    beta_val = float(z @ (jac.T @ m + m @ jac + g @ field(x, zero)) @ z)
    big_n = 1.0
    while not big_n * alpha > abs(beta_val):
        big_n *= 2.0
    return x, big_n * c0, z, beta_val + big_n * alpha


class TestContractionMatrix:
    def test_linear_scalar_constant_metric(self):
        field = linear_additive_field(1)
        metric = RiemannianMetric.constant([[1.0]])
        for x in (-3.0, 0.0, 2.5):
            assert contraction_matrix(field, metric, [x], [0.0])[0, 0] == pytest.approx(-2.0, abs=1e-12)

    def test_scalar_closed_form_identity(self, scalar_system):
        field, metric = scalar_system
        for x in np.linspace(-15, 15, 301):
            got = contraction_matrix(field, metric, [x], [0.0])[0, 0]
            want = 4.0 / (math.sin(x * x) - 2.0)
            assert got == pytest.approx(want, rel=1e-9)

    def test_violation_value_closed_form(self, scalar_system):
        field, metric = scalar_system
        got = contraction_matrix(field, metric, [X_PAPER], [27.0 / 16.0])[0, 0]
        assert got == pytest.approx(-2.0 + 13.5 * math.sqrt(2 * math.pi), abs=1e-9)
        assert got > 0

    def test_dimension_mismatch(self, scalar_system):
        field, metric = scalar_system
        with pytest.raises(DimensionMismatchError):
            contraction_matrix(field, metric, [0.0, 1.0], [0.0])
        with pytest.raises(DimensionMismatchError):
            contraction_matrix(field, metric, [0.0], [0.0, 0.0])

    def test_identity_holds_on_dense_grid(self, scalar_system):
        field, metric = scalar_system
        xs = np.linspace(-20, 20, 10001)
        lhs = scalar_metric_derivative(xs) * (0.5 * xs * np.sin(xs**2) - xs) + 2 * (
            0.5 * np.sin(xs**2) + xs**2 * np.cos(xs**2) - 1.0
        ) * scalar_metric(xs)
        rhs = 4.0 / (np.sin(xs**2) - 2.0)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-9


class TestScalarMetric:
    def test_at_zero(self):
        assert scalar_metric(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_sin_peak(self):
        assert scalar_metric(math.sqrt(math.pi / 2)) == pytest.approx(4.0, abs=1e-12)

    def test_uniform_bounds(self):
        vals = scalar_metric(np.linspace(-20, 20, 100001))
        assert vals.min() > 4.0 / 9.0
        assert vals.max() <= 4.0 + 1e-12

    def test_derivative_matches_finite_differences(self):
        h = 1e-7
        for x in (-4.4, 0.3, 9.9):
            fd = (scalar_metric(x + h) - scalar_metric(x - h)) / (2 * h)
            assert scalar_metric_derivative(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestCheckContractionRegion:
    def test_rate_one_third_certified(self, scalar_system):
        field, metric = scalar_system
        cert = check_contraction_region(field, metric, (-20.0, 20.0), 40001, BETA, [0.0])
        assert cert.holds
        assert cert.margin < 0
        assert cert.grid_spec["counts"] == [40001]

    def test_chained_bound(self):
        s = np.sin(np.linspace(-20, 20, 40001) ** 2)
        chained = 4.0 * (s / 2 - 1) ** 2 / (s - 2)
        assert np.max(chained) <= -1.0 / 3.0 + 1e-12

    def test_violated_with_constant_input(self, scalar_system):
        field, metric = scalar_system
        cert = check_contraction_region(field, metric, (-20.0, 20.0), 4001, BETA, [27.0 / 16.0])
        assert not cert.holds
        assert cert.margin > 0

    def test_window_catches_paper_witness(self, scalar_system):
        field, metric = scalar_system
        spacing = 1e-3
        cert = check_contraction_region(
            field, metric, (X_PAPER - 20 * spacing, X_PAPER + spacing), 22, BETA, [27.0 / 16.0]
        )
        assert not cert.holds
        assert abs(cert.witness["x"][0] - X_PAPER) <= spacing

    def test_margin_exactly_zero(self):
        field = linear_additive_field(1)
        cert = check_contraction_region(field, RiemannianMetric.constant([[1.0]]), (-5.0, 5.0), 11, 2.0, [0.0])
        assert cert.holds
        assert cert.margin == 0.0

    def test_rejects_negative_beta(self, scalar_system):
        field, metric = scalar_system
        with pytest.raises(ValueError):
            check_contraction_region(field, metric, (-1.0, 1.0), 11, -0.1, [0.0])

    @pytest.mark.parametrize(
        "metric_dim, c, region",
        [(2, [0.0], (-1.0, 1.0)), (1, [0.0, 0.0], (-1.0, 1.0)), (1, [0.0], [(-1.0, 1.0), (-1.0, 1.0)])],
        ids=["metric", "input", "region"],
    )
    def test_dimension_mismatch_before_any_evaluation(self, metric_dim, c, region):
        calls = []

        def f(x, u):
            calls.append("field")
            return -x + u

        def evaluate(x):
            calls.append("metric")
            return np.eye(metric_dim)

        field = VectorField(f, 1, 1)
        metric = RiemannianMetric(metric_dim, evaluate, lambda x: np.zeros((metric_dim,) * 3))
        with pytest.raises(DimensionMismatchError):
            check_contraction_region(field, metric, region, 5, BETA, c)
        assert calls == []

    def test_nan_metric_at_interior_point(self):
        nan_at = 0.5
        metric = RiemannianMetric.from_scalar(
            lambda x: np.where(x == nan_at, math.nan, 1.0), lambda x: 0.0, name="nan at one point"
        )
        xs = np.linspace(-1.0, 1.0, 5)
        assert xs[3] == nan_at
        with pytest.raises(NonFiniteError):
            check_contraction_region(linear_additive_field(1), metric, (-1.0, 1.0), 5, BETA, [0.0])


class TestGradients:
    @pytest.mark.parametrize("analytic", [bounded_example_metric(4.0), coupled_metric(2)], ids=["bump-1d", "coupled-2d"])
    def test_finite_difference_grad_matches_analytic(self, analytic, rng):
        numeric = RiemannianMetric(analytic.dim, analytic.eval, None, lower_bound=1.0)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=analytic.dim)
            ga, gn = analytic.grad(x), numeric.grad(x)
            assert np.allclose(gn, ga, rtol=1e-4, atol=1e-8)

    def test_contraction_matrix_with_fd_gradients(self, scalar_system, rng):
        field, metric = scalar_system
        fd_metric = RiemannianMetric(1, metric.eval, None, lower_bound=metric.lower_bound)
        for _ in range(100):
            x = rng.uniform(-8, 8, size=1)
            a = contraction_matrix(field, metric, x, [0.3])[0, 0]
            b = contraction_matrix(field, fd_metric, x, [0.3])[0, 0]
            assert b == pytest.approx(a, rel=1e-4, abs=1e-6)


    def test_from_scalar_finite_difference_matches_analytic_on_a_stack(self, rng):
        xs = rng.uniform(-5, 5, size=(100, 1))
        numeric = RiemannianMetric.from_scalar(scalar_metric, lower_bound=4.0 / 9.0)
        analytic = RiemannianMetric.from_scalar(scalar_metric, scalar_metric_derivative, lower_bound=4.0 / 9.0)
        gn = numeric.grad(xs)
        assert gn.shape == (100, 1, 1, 1)
        assert np.allclose(gn, analytic.grad(xs), rtol=1e-4, atol=1e-8)


class TestUniformContraction:
    def test_constant_metric_ignores_input(self):
        field = linear_additive_field(1)
        cert = check_uniform_contraction(
            field, RiemannianMetric.constant([[1.0]]), (-5.0, 5.0), 5, (-3.0, 3.0), 21, 2.0
        )
        assert cert.holds
        assert cert.margin == 0.0
        assert "box" in cert.note

    def test_scalar_metric_fails_uniformly(self, scalar_system):
        field, metric = scalar_system
        cert = check_uniform_contraction(field, metric, (-2.0, 2.0), 9, (-20.0, 20.0), 2001, BETA)
        assert not cert.holds
        assert abs(cert.witness["c"][0]) == pytest.approx(2.0)

    def test_bump_metric_certifies_bounded_inputs(self):
        m, _ = bounded_metric_m_parameter(1.0)
        field = linear_additive_field(1)
        metric = bounded_example_metric(m)
        half = 10.0 * math.sqrt(m)
        cert = check_uniform_contraction(field, metric, (-1.0, 1.0), 5, (-half, half), 2001, 1.0)
        assert cert.holds

    @pytest.mark.parametrize("input_count", [2, 5, 101])
    def test_input_box_ends_decide_the_bump_certificate(self, input_count):
        # For x' = -x + u the value at each state is affine in c, and every
        # operation on c rounds correctly and monotonically, so it is monotone
        # in c: the box's two ends give the margin and witness of any finer
        # input sample, bit for bit.
        m, _ = bounded_metric_m_parameter(1.0)
        half = 10.0 * math.sqrt(m)
        cert = check_uniform_contraction(
            linear_additive_field(1), bounded_example_metric(m), (-1.0, 1.0), input_count, (-half, half), 2001, 1.0
        )
        assert cert.margin.hex() == "-0x1.b59b734f43140p-4"
        assert cert.witness == {"x": [-1.4849242404917504], "c": [1.0]}

    def test_rate_transfers_to_switched_signals(self):
        # With the uniform certificate at rate beta, trajectory pairs under a
        # random box-valued piecewise-constant signal must contract at the
        # distance-level rate beta/2 up to the metric's condition bound.
        m, _ = bounded_metric_m_parameter(1.0)
        field = linear_additive_field(1)
        metric = bounded_example_metric(m)
        beta = 1.0
        rng = np.random.default_rng(7)
        cuts = np.sort(rng.uniform(0.0, 4.0, size=6))
        values = rng.uniform(-1.0, 1.0, size=(7, 1))
        signal = PiecewiseConstantInput(cuts, values)
        horizon = 4.0
        xa = integrate(field, signal, [1.7], (0.0, horizon)).final_state
        xb = integrate(field, signal, [-0.9], (0.0, horizon)).final_state
        d0, d1 = abs(1.7 - (-0.9)), abs(float(xa[0] - xb[0]))
        cond = math.sqrt(2.0 / 1.0)  # sup M = 2, inf M = 1
        assert d1 <= cond * math.exp(-(beta / 2 - 0.05) * horizon) * d0


class TestStackedCertificates:
    def test_matches_per_point_arithmetic_exactly(self):
        field, metric = twisted_field(), coupled_metric(2)
        box = [(-2.0, 1.0), (-1.0, 2.0)]
        states, inputs = grid_rows(box, 7), grid_rows(box, 3)
        for x, c in zip(states[::5], inputs):
            jac, m = field.jacobian_x(x, c), metric.eval(x)
            a = jac.T @ m + m @ jac + metric.grad(x) @ field(x, c)
            assert np.array_equal(contraction_matrix(field, metric, x, c), (a + a.T) / 2.0)
        region = check_contraction_region(field, metric, box, 7, BETA, inputs[5])
        values = reference_values(field, metric, states, inputs[5:], BETA)
        i = int(np.argmax(values[: len(states)]))
        assert region.margin == values[i]
        assert region.witness == {"x": states[i].tolist(), "c": inputs[5].tolist()}
        uniform = check_uniform_contraction(field, metric, box, 3, box, 7, BETA)
        values = reference_values(field, metric, states, inputs, BETA)
        k, i = divmod(int(np.argmax(values)), len(states))
        assert uniform.margin == values.max()
        assert uniform.witness == {"x": states[i].tolist(), "c": inputs[k].tolist()}

    def test_field_receives_state_stack_and_metric_one_state(self):
        field, metric, log = recorded(twisted_field(), coupled_metric(2))
        contraction_matrix(field, metric, [0.3, -0.2], [0.5, 1.0])
        for check in CHECKS.values():
            check(field, metric)
        # The point call sees a stack of one; both certificates grid 3 x 3 states.
        names = ("field", "jacobian", "eval", "grad")
        shapes = {name: {shape for logged, shape in log if logged == name} for name in names}
        assert shapes == {"field": {(1, 2), (9, 2)}, "jacobian": {(1, 2), (9, 2)}, "eval": {(2,)}, "grad": {(2,)}}

    def test_uniform_evaluates_metric_once_per_state(self):
        field, metric, log = recorded(twisted_field(), coupled_metric(2))
        check_uniform_contraction(field, metric, [(-1.0, 1.0)] * 2, 3, [(-1.0, 1.0)] * 2, 4, BETA)
        counts = {name: sum(1 for logged, _ in log if logged == name) for name in ("eval", "grad", "field", "jacobian")}
        assert counts == {"eval": 16, "grad": 16, "field": 9, "jacobian": 9}

    @pytest.mark.parametrize("system", ["scalar", "bump"])
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_stock_metric_callables_get_one_column_per_certificate(self, monkeypatch, check, system):
        log = []
        if system == "scalar":
            monkeypatch.setattr(contraction, "scalar_metric", log_calls(log, "m", scalar_metric))
            monkeypatch.setattr(contraction, "scalar_metric_derivative", log_calls(log, "m'", scalar_metric_derivative))
            field, metric = contraction.scalar_example_system()
            expected = [("m", (3,)), ("m'", (3,))]
        else:
            # m and m' of the bump metric each read _bump once.
            monkeypatch.setattr(contraction, "_bump", log_calls(log, "bump", contraction._bump))
            field, metric = linear_additive_field(1), bounded_example_metric(2.0)
            expected = [("bump", (3,))] * 2
        CHECKS[check](field, metric)
        assert log == expected

    def test_uniform_witness_is_first_maximum_input_slowest(self):
        # lambda = 2J + 1 with J = -1 - x u peaks at 1 on (u=-1, x=1) and on
        # (u=1, x=-1), an exact tie across two inputs; the first row with the
        # input slowest is (u=-1, x=1), with the state slowest (u=1, x=-1).
        field = VectorField(
            lambda x, u: -x - 0.5 * x * x * u, 1, 1, jacobian=lambda x, u: (-1.0 - x * u[0])[..., None]
        )
        cert = check_uniform_contraction(field, RiemannianMetric.constant([[1.0]]), (-1.0, 1.0), 2, (-1.0, 1.0), 3, 1.0)
        assert cert.margin == 1.0
        assert cert.witness == {"x": [1.0], "c": [-1.0]}

    @pytest.mark.parametrize(
        "bad",
        ["metric-nine-entries", "metric-scalar", "grad-scalar", "jacobian-scalar", "field-scalar"],
    )
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_wrong_sized_callable_result_raises(self, check, bad):
        # A scalar must not broadcast silently across a row of the stacks.
        evaluate = {"metric-nine-entries": lambda x: np.ones(9), "metric-scalar": lambda x: 3.0}.get(
            bad, lambda x: 3.0 * np.eye(2)
        )
        gradient = (lambda x: 0.0) if bad == "grad-scalar" else (lambda x: np.zeros((2, 2, 2)))
        field = VectorField(
            (lambda x, u: -1.0) if bad == "field-scalar" else (lambda x, u: -x + u),
            2,
            2,
            jacobian=(lambda x, u: -1.0) if bad == "jacobian-scalar" else (lambda x, u: -np.eye(2)),
        )
        with pytest.raises(ValueError):
            CHECKS[check](field, RiemannianMetric(2, evaluate, gradient))

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_non_finite_row_raises(self, check):
        field = VectorField(lambda x, u: np.where(x == 0.0, math.nan, -x + u), 1, 1, jacobian=lambda x, u: -np.eye(1))
        with pytest.raises(NonFiniteError):
            CHECKS[check](field, bounded_example_metric(2.0))

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_metric_not_positive_definite_raises(self, check):
        # x' = x with M = -1 gives every row the negative value -2 - beta, so
        # only the definiteness test can refuse it.
        field = VectorField(lambda x, u: x, 1, 1, jacobian=lambda x, u: np.eye(1))
        metric = RiemannianMetric(1, lambda x: -np.eye(1), lambda x: np.zeros((1, 1, 1)), lower_bound=1.0)
        with pytest.raises(ValueError, match=r"positive definite at x=\[-1\.0\]"):
            CHECKS[check](field, metric)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_metric_indefinite_at_one_state_raises(self, check):
        # Indefinite only at the grid corner (1, 1), which the message names.
        def evaluate(x):
            return np.diag([1.0, 1.0 - 2.0 * float(x[0] == x[1] == 1.0)])

        metric = RiemannianMetric(2, evaluate, lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=r"positive definite at x=\[1\.0, 1\.0\]"):
            CHECKS[check](linear_additive_field(2), metric)

    @pytest.mark.parametrize(
        "system, n",
        [((linear_additive_field(1), bounded_example_metric(2.0)), 1), ((twisted_field(), coupled_metric(2)), 2)],
        ids=["n1", "n2"],
    )
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_one_eigenvalue_call_over_all_rows(self, monkeypatch, check, system, n):
        shapes = []
        stacked = linalg.symmetric_eigenvalues

        def logged(a):
            shapes.append(np.shape(a))
            return stacked(a)

        monkeypatch.setattr(linalg, "symmetric_eigenvalues", logged)
        monkeypatch.setattr(contraction, "symmetric_eigenvalues", logged)
        CHECKS[check](*system)
        # One call over every (input, state) row, one over M at the 3^n grid states.
        rows = 3**n if check == "region" else 9**n
        assert shapes == [(rows, n, n), (3**n, n, n)]

    @pytest.mark.parametrize(
        "check, beta", [("region", 0.0), ("region", 1e-12), ("region", BETA), ("uniform", 1e-12), ("uniform", BETA)]
    )
    def test_metric_asymmetric_at_one_state_raises(self, check, beta):
        # Asymmetric by 1e-3 only at the grid corner (1, 1).  The rows are
        # symmetrized, so for beta * 1e-3 below the tolerance only the check
        # on M itself can refuse the metric.
        def evaluate(x):
            return 3.0 * np.eye(2) + np.array([[0.0, 1e-3], [0.0, 0.0]]) * float(x[0] == x[1] == 1.0)

        metric = RiemannianMetric(2, evaluate, lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(NonSymmetricError):
            CHECKS[check](linear_additive_field(2), metric, beta)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_dimension_mismatch_before_any_call(self, check):
        field, metric, log = recorded(twisted_field(), bounded_example_metric(2.0))
        with pytest.raises(DimensionMismatchError):
            CHECKS[check](field, metric)
        assert log == []

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_non_finite_beta_rejected_before_any_call(self, check, beta):
        field, metric, log = recorded(twisted_field(), coupled_metric(2))
        with pytest.raises(ValueError, match="beta"):
            CHECKS[check](field, metric, beta)
        assert log == []

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["region", "uniform-states", "uniform-inputs", "violating-search"])
    def test_non_finite_bound_rejected_before_any_call(self, where, bound):
        field, metric, log = recorded(linear_additive_field(1), bounded_example_metric(2.0))
        box, unit = (bound, 1.0), (-1.0, 1.0)
        run = {
            "region": lambda: check_contraction_region(field, metric, box, 3, BETA, [0.0]),
            "uniform-states": lambda: check_uniform_contraction(field, metric, unit, 3, box, 3, BETA),
            "uniform-inputs": lambda: check_uniform_contraction(field, metric, box, 3, unit, 3, BETA),
            "violating-search": lambda: find_violating_input(field, metric, box),
        }[where]
        with pytest.raises(ValueError, match="bounds must be finite"):
            run()
        assert log == []


class TestFindViolatingInput:
    def test_scalar_system_violation(self, scalar_system):
        field, metric = scalar_system
        found = find_violating_input(field, metric, (-3.0, 3.0))
        assert found.value > 0
        cross = float(found.z @ contraction_matrix(field, metric, found.x, found.c) @ found.z)
        assert cross == pytest.approx(found.value, rel=1e-9)

    def test_constant_metric_detected(self):
        field = linear_additive_field(2)
        with pytest.raises(MetricAppearsConstantError):
            find_violating_input(field, RiemannianMetric.constant(np.eye(2)), [(-3.0, 3.0), (-3.0, 3.0)])

    def test_gaussian_metric_needs_large_input(self):
        field = linear_additive_field(1)
        found = find_violating_input(field, bounded_example_metric(4.0), (-3.0, 3.0))
        assert found.value > 0
        assert abs(found.c[0]) >= 2.0  # the doubling stage is visible
        cross = float(found.z @ contraction_matrix(field, bounded_example_metric(4.0), found.x, found.c) @ found.z)
        assert cross == pytest.approx(found.value, rel=1e-9)

    def test_deterministic(self, scalar_system):
        field, metric = scalar_system
        a = find_violating_input(field, metric, (-3.0, 3.0), seed=0)
        b = find_violating_input(field, metric, (-3.0, 3.0), seed=0)
        assert np.array_equal(a.c, b.c) and np.array_equal(a.x, b.x) and a.value == b.value

    @pytest.mark.parametrize(
        "system, x_search, x_resolution",
        [
            ("scalar", (-7.0, -2.0), 21),
            ("scalar", (-3.0, 3.0), 21),  # |alpha| ties between x and -x
            ("coupled-2", [(-2.0, 0.5), (-1.0, 1.5)], 9),
            ("coupled-2", [(-3.0, 3.0), (-3.0, 3.0)], 9),
            ("coupled-3", [(-3.0, 3.0)] * 3, 4),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("block", [1, contraction._SCORE_BLOCK], ids=["one-state-blocks", "default-blocks"])
    def test_matches_streaming_reference_exactly(
        self, monkeypatch, scalar_system, system, x_search, x_resolution, seed, block
    ):
        # With one state per block, the scalar (-3, 3) tie falls across blocks.
        monkeypatch.setattr(contraction, "_SCORE_BLOCK", block)
        if system == "scalar":
            field, metric = scalar_system
        else:
            n = int(system[-1])
            field, metric = linear_additive_field(n), coupled_metric(n)
        found = find_violating_input(field, metric, x_search, x_resolution=x_resolution, seed=seed)
        x, c, z, value = reference_violating_input(field, metric, x_search, x_resolution, seed)
        assert np.array_equal(found.x, x)
        assert np.array_equal(found.c, c)
        assert np.array_equal(found.z, z)
        assert found.value == value

    def test_three_dimensional_search_memory_is_bounded(self, monkeypatch):
        # 9,261 states x 19 directions x 19 vectors is 26 MB of scores held
        # at once; blocks of states keep the peak far below that and leave
        # the winner the one search over all scores at once would find.
        import tracemalloc

        field, metric, box = linear_additive_field(3), coupled_metric(3), [(-3.0, 3.0)] * 3
        tracemalloc.start()
        try:
            found = find_violating_input(field, metric, box, x_resolution=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        monkeypatch.setattr(contraction, "_SCORE_BLOCK", 21**3 * 19 * 19)
        whole = find_violating_input(field, metric, box, x_resolution=21)
        assert np.array_equal(found.x, whole.x)
        assert np.array_equal(found.c, whole.c)
        assert np.array_equal(found.z, whole.z)
        assert found.value == whole.value

    def test_non_finite_gradient_raises(self):
        # The NaN gradient sits at the first grid point; the search must not
        # let it win the comparison and loop forever on a NaN alpha.
        metric = RiemannianMetric.from_scalar(lambda x: 2.0, lambda x: np.where(x <= -3.0, math.nan, x))
        with pytest.raises(NonFiniteError):
            find_violating_input(linear_additive_field(1), metric, (-3.0, 3.0))

    def test_non_finite_metric_at_witness_raises(self):
        # |m'| is largest at x = -3, where M itself is NaN: the unforced
        # quadratic form is NaN and the doubling of N would never stop.
        metric = RiemannianMetric.from_scalar(lambda x: np.where(x < 0.0, math.nan, 2.0), lambda x: x)
        with pytest.raises(NonFiniteError):
            find_violating_input(linear_additive_field(1), metric, (-3.0, 3.0))


class TestBoundedMetricParameter:
    def test_unit_bound(self):
        m, cert = bounded_metric_m_parameter(1.0)
        assert cert.holds
        assert cert.margin <= 0
        assert m == 2.0 ** round(math.log2(m))

    def test_zero_bound_is_easier(self):
        m0, cert0 = bounded_metric_m_parameter(0.0)
        m1, _ = bounded_metric_m_parameter(1.0)
        assert cert0.holds
        assert m0 <= m1

    def test_grid_inequality_holds(self):
        m, _ = bounded_metric_m_parameter(1.0)
        xs = np.linspace(-10 * math.sqrt(m), 10 * math.sqrt(m), 40001)
        eps = np.exp(-xs * xs / m)
        eps_prime = -2 * xs / m * eps
        for c in (-1.0, 0.0, 1.0):
            assert np.max(np.abs((c - xs) * eps_prime) - (1 + eps)) <= 0

    def test_resulting_metric_is_nonconstant(self):
        m, _ = bounded_metric_m_parameter(1.0)
        metric = bounded_example_metric(m)
        grad = metric.grad([math.sqrt(m)])[0, 0, 0]
        assert grad == pytest.approx(-2.0 / math.sqrt(m) * math.exp(-1.0), rel=1e-12)
        assert grad != 0

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            bounded_metric_m_parameter(float("inf"))

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_example_metric_rejects_m_not_finite_and_positive(self, m):
        with pytest.raises(ValueError, match="m must be finite and positive"):
            bounded_example_metric(m)


class TestRiemannianMetric:
    def test_constant_broadcasts_over_a_stack(self):
        matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
        metric = RiemannianMetric.constant(matrix)
        xs = np.arange(10.0).reshape(5, 2)
        assert metric.eval(xs).shape == (5, 2, 2)
        assert np.array_equal(metric.eval(xs), np.broadcast_to(matrix, (5, 2, 2)))
        assert np.array_equal(metric.grad(xs), np.zeros((5, 2, 2, 2)))
        assert np.array_equal(metric.eval(xs[0]), matrix)

    @pytest.mark.parametrize(
        "method, bad", [("eval", np.ones(4)), ("eval", np.ones((1, 2, 2))), ("grad", np.zeros((2, 4))), ("grad", 0.0)]
    )
    def test_wrong_result_shape_raises(self, method, bad):
        # A flat (4,) has the size of a 2 x 2 matrix but not its shape.
        fns = {"eval": lambda x: 3.0 * np.eye(2), "grad": lambda x: np.zeros((2, 2, 2)), method: lambda x: bad}
        metric = RiemannianMetric(2, fns["eval"], fns["grad"])
        for x in ([0.1, 0.2], [[0.1, 0.2], [0.3, 0.4]]):
            with pytest.raises(ValueError, match="metric returned shape"):
                getattr(metric, method)(x)
        with pytest.raises(ValueError, match="metric returned shape"):
            contraction_matrix(linear_additive_field(2), metric, [0.1, 0.2], [0.0, 0.0])

    @pytest.mark.parametrize("method", ["eval", "grad"])
    def test_from_scalar_rejects_a_result_of_another_length(self, method):
        metric = RiemannianMetric.from_scalar(lambda x: np.ones(3), lambda x: np.zeros(3))
        with pytest.raises(ValueError):
            getattr(metric, method)(np.zeros((2, 1)))

    @pytest.mark.parametrize("x", [[0.1, 0.2, 0.3], np.zeros((2, 3)), np.zeros((1, 2, 2))])
    def test_rejects_states_of_another_shape(self, x):
        metric = coupled_metric(2)
        for method in (metric.eval, metric.grad):
            with pytest.raises(ValueError, match="takes states"):
                method(x)

    def test_requires_positive_lower_bound(self):
        for lower_bound in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                RiemannianMetric(1, lambda x: np.array([[1.0]]), lower_bound=lower_bound)

    def test_positive_definiteness_sampled(self, scalar_system, rng):
        _, metric = scalar_system
        for _ in range(100):
            x = rng.uniform(-10, 10, size=1)
            v = rng.normal(size=1)
            m = metric.eval(x)
            assert float(v @ m @ v) >= metric.lower_bound * float(v @ v) - 1e-12
            assert np.max(np.abs(m - m.T)) <= 1e-12
