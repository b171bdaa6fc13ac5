import json
import math

import mpmath as mp
import numpy as np
import pytest

from contraction_lab import counterexample
from contraction_lab.constant_metric import example_3d_system
from contraction_lab.contraction import linear_additive_field, scalar_example_system
from contraction_lab.counterexample import (
    build_counterexample,
    circle_field,
    circle_orbit_residual,
    find_r_star,
    polar_equivalence_check,
    radial_f,
    radial_f_slope,
    random_initial_conditions,
    rotating_frame_counterexample,
    second_order_value,
    verify_ges,
)
from contraction_lab.dynamics import ConstantInput, IntegratorConfig, Trajectory, VectorField, integrate
from contraction_lab.errors import NoRootFoundError, NonFiniteError

PRINTED_R_STAR = 2.79098840365914

# Every stock field of the library, each with its analytic Jacobian.
STOCK_FIELDS = {
    "scalar-example": lambda: scalar_example_system()[0],
    "linear-1d": lambda: linear_additive_field(1),
    "linear-2d": lambda: linear_additive_field(2),
    "example-3d": lambda: example_3d_system()[0],
    "circle": circle_field,
}
# The co-rotating field has no analytic Jacobian: central differences stand in.
ROW_FIELDS = {**STOCK_FIELDS, "co-rotating": lambda: rotating_frame_counterexample(PRINTED_R_STAR)[0]}


def high_precision_radius(guess: float) -> float:
    """Independent oracle: 40-digit root of the stationarity condition."""
    mp.mp.dps = 40
    g = lambda r: mp.sin(r**2) / 2 + r**2 * mp.cos(r**2) - 1
    return float(mp.findroot(g, mp.mpf(guess)))


class TestRadialDrift:
    def test_odd_function_vanishes_at_zero(self):
        assert radial_f(0.0) == 0.0

    def test_closed_form_at_sin_peak(self):
        r = math.sqrt(math.pi / 2)
        assert radial_f(r) == pytest.approx(-r / 2, abs=1e-15)

    def test_value_at_critical_radius(self, r_star_cert):
        v = radial_f(r_star_cert.r_star)
        assert v <= -r_star_cert.r_star / 2
        assert v == r_star_cert.f_at_rstar

    def test_slope_is_derivative(self):
        h = 1e-6
        for r in (0.7, 1.9, 3.3):
            fd = (radial_f(r + h) - radial_f(r - h)) / (2 * h)
            assert radial_f_slope(r) == pytest.approx(fd, abs=1e-8)

    def test_second_order_value_is_second_derivative(self):
        h = 1e-6
        for r in (0.7, 1.9, 3.3):
            fd = (radial_f_slope(r + h) - radial_f_slope(r - h)) / (2 * h)
            assert second_order_value(r) == pytest.approx(fd, rel=1e-6)


class TestFindRStar:
    def test_matches_printed_value(self, r_star_cert):
        assert abs(r_star_cert.r_star - PRINTED_R_STAR) <= 1e-10

    def test_matches_high_precision_oracle(self, r_star_cert):
        assert abs(r_star_cert.r_star - high_precision_radius(2.79)) <= 1e-13

    def test_certificate_invariants(self, r_star_cert):
        assert abs(r_star_cert.first_order_residual) <= 1e-12
        assert r_star_cert.second_order_value < 0
        assert abs(radial_f_slope(r_star_cert.r_star)) <= 1e-11
        r_star_cert.validate()

    def test_deterministic(self, r_star_cert):
        again = find_r_star((0.1, 4.0), 1e-13)
        assert again.r_star == r_star_cert.r_star
        assert again.to_json() == r_star_cert.to_json()

    def test_bits_of_printed_radius(self, r_star_cert):
        assert r_star_cert.r_star.hex() == "0x1.653f1ba69d99fp+1"
        assert r_star_cert.second_order_value == second_order_value(r_star_cert.r_star)

    def test_no_root_below_one(self):
        with pytest.raises(NoRootFoundError):
            find_r_star((0.1, 1.0), 1e-13)

    def test_rising_crossing_alone_is_no_maximum(self):
        # f' rises through zero at the local minimum r = 2.2387 of f.
        with pytest.raises(NoRootFoundError):
            find_r_star((2.0, 2.5), 1e-13)

    def test_next_maximum(self):
        cert = find_r_star((3.0, 6.0), 1e-13)
        assert abs(cert.first_order_residual) <= 1e-12
        assert cert.second_order_value < 0
        assert cert.r_star == pytest.approx(high_precision_radius(3.755), abs=1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            find_r_star((-1.0, 2.0), 1e-13)

    @pytest.mark.parametrize("interval", [(0.1, 1e9), (1.0, 1001.0), (0.1, math.inf)])
    def test_rejects_interval_beyond_scan_cap(self, interval):
        # A million scan points at step 1e-3 is the cap; 0.1:1e9 would need 7 TiB.
        with pytest.raises(ValueError, match="scan points"):
            find_r_star(interval, 1e-13)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-13])
    def test_rejects_tolerance_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            find_r_star((0.1, 4.0), tol)

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_tolerance_below_float_spacing(self, r_star_cert, tol):
        # No bracket narrower than two adjacent floats exists near the root;
        # bisection must stop there instead of looping forever.
        assert abs(find_r_star((0.1, 4.0), tol).r_star - r_star_cert.r_star) <= 1e-12

    def test_json_has_all_fields_at_full_precision(self, r_star_cert):
        doc = json.loads(r_star_cert.to_json())
        assert list(doc) == ["r_star", "first_order_residual", "second_order_value", "f_at_rstar"]
        assert doc["r_star"] == r_star_cert.r_star


class TestBuildCounterexample:
    def test_origin_is_equilibrium_of_unforced_field(self):
        field = circle_field()
        assert np.array_equal(field([0.0, 0.0], [0.0, 0.0]), [0.0, 0.0])

    def test_orbit_tangent_at_phase_zero(self, r_star, forced_system):
        field, signal = forced_system
        rhs = field([r_star, 0.0], signal.eval(0.0))
        assert np.allclose(rhs, [0.0, r_star], atol=1e-12)

    def test_forcing_amplitude(self, r_star, forced_system):
        _, signal = forced_system
        amplitude = float(np.linalg.norm(signal.eval(0.0)))
        assert amplitude == pytest.approx(-radial_f(r_star), abs=1e-15)
        assert amplitude > 0

    def test_input_period(self, forced_system):
        _, signal = forced_system
        for t in np.linspace(0, 2 * math.pi, 9):
            assert np.allclose(signal.eval(t), signal.eval(t + 2 * math.pi), atol=1e-12)

    @pytest.mark.parametrize("make_field", ROW_FIELDS.values(), ids=ROW_FIELDS)
    def test_batch_rows_equal_single_states(self, make_field, rng, bit_test_states):
        # Byte for byte: the golden artifacts print %.17g, where -0 and 0 differ.
        field = make_field()
        x = bit_test_states(field.state_dim)
        for u in (np.zeros(field.input_dim), rng.uniform(-1.0, 1.0, size=field.input_dim)):
            values = np.array([field(state, u) for state in x])
            jacobians = np.array([field.jacobian_x(state, u) for state in x])
            assert field(x[:0], u).shape == (0, field.state_dim)
            for size in [*range(1, counterexample._PYTHON_ROWS_MAX + 2), 100]:
                for i in range(0, len(x), size):
                    rows = slice(i, i + size)
                    assert field(x[rows], u).tobytes() == values[rows].tobytes()
                    jacobian = field.jacobian_x(x[rows], u)
                    assert jacobian.shape == x[rows].shape + (field.state_dim,)
                    assert jacobian.tobytes() == jacobians[rows].tobytes()

    @pytest.mark.parametrize("size", range(1, counterexample._PYTHON_ROWS_MAX + 2))
    def test_overflowing_row_is_nan_on_both_sides_of_the_cut(self, monkeypatch, size):
        # r^2 overflows at (1e200, 0): that row is NaN wherever it sits, in
        # the row loop, in the NumPy branch and alone.  NaN payloads
        # may differ in sign (np.sin(inf) against math.nan), so only their
        # positions are compared; the finite rows stay byte for byte.
        field = circle_field()
        finite = [
            [0.5, -1.5], [-2.0, 0.25], [0.0, -2.0], [3.0, 3.0], [-0.75, 1.25],
            [1e-3, 0.0], [2.5, -0.5], [-0.0, 0.75], [-3.5, -1.0], [1.75, 2.25],
        ]
        finite = finite[: size - 1]
        u = np.array([0.25, -0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            for at in range(size):
                x = np.array(finite[:at] + [[1e200, 0.0]] + finite[at:])
                singles = np.array([field(state, u) for state in x])
                batches = [field(x, u)]
                with monkeypatch.context() as patched:
                    patched.setattr(counterexample, "_PYTHON_ROWS_MAX", 0)
                    batches.append(field(x, u))
                finite_rows = np.arange(size) != at
                for batch in batches:
                    assert np.isnan(batch[at]).all()
                    assert np.array_equal(np.isnan(batch), np.isnan(singles))
                    assert batch[finite_rows].tobytes() == singles[finite_rows].tobytes()

    @pytest.mark.parametrize("rows", [None, 3, 100])
    def test_shared_input_of_wrong_length_is_refused(self, rows):
        field = circle_field()
        x = np.ones(2) if rows is None else np.ones((rows, 2))
        with pytest.raises(ValueError):
            field(x, np.zeros(3))

    def test_every_evaluation_goes_through_the_field_call(self, monkeypatch, r_star):
        # The tracer counts VectorField.__call__; a shortcut to the raw
        # callable would make its field_evals undercount the work done.
        raw, wrapped = [], []
        field_rhs, field_call = counterexample._field_rhs, VectorField.__call__

        def counted_rhs(x, u):
            raw.append(None)
            return field_rhs(x, u)

        def counted_call(self, x, u):
            wrapped.append(None)
            return field_call(self, x, u)

        monkeypatch.setattr(counterexample, "_field_rhs", counted_rhs)
        monkeypatch.setattr(VectorField, "__call__", counted_call)
        field, signal = build_counterexample(r_star)
        integrate(field, signal, [r_star, 0.0], (0.0, 1.0))
        integrate(field, signal, [[r_star, 0.0], [1.0, -1.0], [0.0, 2.0]], (0.0, 1.0))
        assert len(raw) == len(wrapped) > 0

    def test_batch_has_polar_form(self, rng):
        field = circle_field()
        r = rng.uniform(0.1, 4.0, size=7)
        theta = rng.uniform(0.0, 2 * math.pi, size=7)
        x = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        u = rng.uniform(-1.0, 1.0, size=2)
        batch = field(x, u)
        # Polar form: radial speed f(r), angular speed 1, plus the input.
        polar = radial_f(r)[:, None] * x / r[:, None] + np.column_stack([-x[:, 1], x[:, 0]]) + u
        assert np.allclose(batch, polar, rtol=0.0, atol=1e-12)

    def test_analytic_jacobian_matches_finite_differences(self, rng):
        from contraction_lab.dynamics import VectorField

        field = circle_field()
        bare = VectorField(lambda x, u: field(x, u), 2, 2)
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            u = rng.uniform(-1, 1, size=2)
            assert np.allclose(field.jacobian_x(x, u), bare.jacobian_x(x, u), rtol=1e-4, atol=1e-6)


class TestRotatingFrame:
    def test_turning_the_co_rotating_field_gives_the_forced_field(self, r_star, forced_system, rng):
        # x = R(t)y gives x' = R(t)G(y) + J R(t)y, which must be F(x, u(t)).
        field, signal = forced_system
        co_field, push = rotating_frame_counterexample(r_star)
        y, t = rng.uniform(-5.0, 5.0, size=(1000, 2)), rng.uniform(0.0, 100.0, size=1000)
        c, s = np.cos(t), np.sin(t)

        def turn(v):
            return np.column_stack([c * v[:, 0] - s * v[:, 1], s * v[:, 0] + c * v[:, 1]])

        x = turn(y)
        lhs = turn(co_field(y, push.eval(0.0))) + np.column_stack([-x[:, 1], x[:, 0]])
        rhs = field(x, signal.eval(t).T)
        # sin(|y|^2) carries a rounding of |y|^2, so the scale grows as |y|^3.
        norm = np.linalg.norm(y, axis=1)
        scale = norm * (norm * norm + 3.0) + push.eval(0.0)[0]
        assert np.all(np.max(np.abs(lhs - rhs), axis=1) <= 4 * np.finfo(float).eps * scale)

    def test_input_is_the_constant_push_along_the_first_axis(self, r_star):
        _, push = rotating_frame_counterexample(r_star)
        assert push.period == 2 * math.pi
        for t in np.linspace(0.0, 4 * math.pi, 7):
            assert push.eval(t).tolist() == [-radial_f(r_star), 0.0]

    def test_return_map_is_the_inertial_one(self, r_star, forced_system):
        from contraction_lab.entrainment import poincare_map

        x0 = [r_star - 0.1, 0.0]
        co_map = poincare_map(*rotating_frame_counterexample(r_star), x0)
        assert np.max(np.abs(co_map - poincare_map(*forced_system, x0))) <= 1e-9


class TestCircleOrbitResidual:
    def test_exact_on_certified_radius(self, r_star):
        assert circle_orbit_residual(r_star, 1000) <= 1e-10

    def test_breaks_off_radius(self, r_star):
        assert circle_orbit_residual(r_star + 0.01, 1000) > 1e-3

    def test_sample_count_validation(self, r_star):
        with pytest.raises(ValueError):
            circle_orbit_residual(r_star, 4)
        with pytest.raises(ValueError, match="finite"):
            circle_orbit_residual(math.nan, 100)

    def test_one_field_call_with_one_input_per_sample(self, monkeypatch, r_star):
        # All samples go to the field in one call, row i with the input at t_i.
        states, inputs, signals = [], [], []

        def recorded(radius):
            field, signal = build_counterexample(radius)
            signals.append(signal)

            def rhs(x, u):
                states.append(x)
                inputs.append(u)
                return field(x, u)

            return VectorField(rhs, 2, 2, per_row_inputs=True), signal

        monkeypatch.setattr(counterexample, "build_counterexample", recorded)
        assert circle_orbit_residual(r_star, 16) <= 1e-10
        t = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        assert len(states) == len(inputs) == 1
        assert np.array_equal(states[0], r_star * np.column_stack([np.cos(t), np.sin(t)]))
        assert np.array_equal(inputs[0], [signals[0].eval(ti) for ti in t])


def log_radius_excess(starts, horizon, rate, config=None):
    """Reference for the trajectory check of ``verify_ges``: the lockstep run of
    rho = log|x| from every start, and exp(rho(t) - rho(0) + rate t) - 1 at each
    of its times, row 0 included."""
    rho0 = np.log(np.hypot(starts[:, 0], starts[:, 1]))
    traj = integrate(counterexample._LOG_RADIUS, ConstantInput(()), rho0[:, None], (0.0, horizon), config)
    return traj.times, np.expm1(traj.states[:, :, 0] - rho0 + rate * traj.times[:, None])


def recorded_ges_run(monkeypatch, starts, horizon):
    """The trajectory that ``verify_ges(starts, horizon, 0.5)`` integrates, and its certificate."""
    runs = []

    def recording(*args):
        traj = integrate(*args)
        runs.append(Trajectory(traj.times, traj.states.copy()))  # verify_ges scores its states in place
        return traj

    monkeypatch.setattr(counterexample, "integrate", recording)
    cert = verify_ges(starts, horizon, 0.5)
    (traj,) = runs
    return traj, cert


class TestVerifyGes:
    def test_hundred_random_starts(self):
        ics = random_initial_conditions(100, 10.0, seed=0)
        cert = verify_ges(ics, 20.0, 0.5)
        assert cert.holds
        assert cert.margin <= 1e-9

    def test_origin_trivially_holds(self):
        cert = verify_ges([[0.0, 0.0]], 5.0, 0.5)
        assert cert.holds

    def test_rate_beyond_half_refuted_by_grid(self):
        cert = verify_ges([[1.0, 0.0]], 1.0, 0.6)
        assert not cert.holds
        r = cert.witness["r"]
        assert radial_f(r) + 0.6 * r > 0

    def test_grid_refutation_mechanism(self):
        # where sin(r^2) = 1 the drift is exactly -r/2, so rate 0.6 leaks 0.1 r
        r = math.sqrt(math.pi / 2 + 2 * math.pi * 20)
        assert radial_f(r) + 0.6 * r == pytest.approx(0.1 * r, abs=1e-12)

    def test_trajectory_witness_is_first_maximum(self):
        # Loose tolerances make the integrated log-radius overshoot the GES
        # bound, so the trajectory check fails while the generator scan passes.
        starts = random_initial_conditions(20, 10.0, seed=3)
        config = IntegratorConfig(rel_tol=1e-1, abs_tol=1e-1)
        cert = verify_ges(starts, 20.0, 0.5, config)
        assert not cert.holds
        assert cert.margin == pytest.approx(0.0579, abs=1e-4)
        ts, excess = log_radius_excess(starts, 20.0, 0.5, config)
        k, i = np.unravel_index(np.argmax(excess), excess.shape)
        assert cert.margin == excess[k, i]
        assert cert.witness == {"x0": starts[i].tolist(), "t": float(ts[k])}
        assert type(cert.witness["t"]) is float

    def test_witness_past_the_first_block(self):
        # The witness is the first largest excess, not the first excess past
        # the slack: here the bound already fails at the first accepted step,
        # and the excess peaks at the 9th of 16.
        starts = random_initial_conditions(20, 10.0, seed=3)
        config = IntegratorConfig(rel_tol=0.3, abs_tol=0.3)
        cert = verify_ges(starts, 60.0, 0.5, config)
        ts, excess = log_radius_excess(starts, 60.0, 0.5, config)
        k, i = np.unravel_index(np.argmax(excess), excess.shape)
        assert (len(ts) - 1, k) == (16, 9)
        assert np.any(excess[1] > 1e-9)
        assert not cert.holds and cert.margin == excess[k, i]
        assert cert.witness == {"x0": starts[i].tolist(), "t": float(ts[k])}

    @pytest.mark.parametrize(
        "horizon, rate, message", [(1.0, 1e308, "overflows on the generator scan grid")], ids=["scan-overflows"]
    )
    def test_non_finite_excess_raises(self, horizon, rate, message):
        # A huge rate overflows the scan, which raises, with no warning,
        # instead of returning a margin that JSON cannot hold.
        with pytest.raises(NonFiniteError, match=message):
            verify_ges(random_initial_conditions(100, 10.0, seed=0), horizon, rate)

    def test_tied_excess_keeps_the_earlier_witness(self, monkeypatch):
        # rate t vanishes next to a log-radius gain of 1 at these times, so both
        # steps reach the excess e - 1 exactly, on different starts; the earlier
        # step is the witness.
        def fake_integrate(field, signal, x0, t_span, config):
            return Trajectory([0.0, 1e-20, 2e-20], [x0, [[0.0], [1.0]], [[1.0], [0.0]]])

        monkeypatch.setattr(counterexample, "integrate", fake_integrate)
        cert = verify_ges([[1.0, 0.0], [0.0, 1.0]], 1.0, 0.5)
        assert not cert.holds and cert.margin == np.expm1(1.0)
        assert cert.witness == {"x0": [0.0, 1.0], "t": 1e-20}

    def test_first_non_finite_step_is_named(self, monkeypatch):
        # The excess overflows at one step on the second start, and a step
        # later on both; the error names the earlier step.
        def fake_integrate(field, signal, x0, t_span, config):
            states = [x0, [[-1.0], [-1.0]], [[-5e3], [0.0]], [[0.0], [0.0]]]
            return Trajectory([0.0, 1.0, 1e4, 2e4], states)

        monkeypatch.setattr(counterexample, "integrate", fake_integrate)
        with pytest.raises(NonFiniteError, match=r"at t=10000\.0$"):
            verify_ges([[1.0, 0.0], [0.0, 1.0]], 3e4, 0.5)

    def test_generator_scan_is_computed_once_and_read_only(self):
        starts = random_initial_conditions(3, 10.0, seed=1)
        assert verify_ges(starts, 5.0, 0.5).to_json() == verify_ges(starts, 5.0, 0.5).to_json()
        for array in counterexample._ges_scan():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert counterexample._ges_scan.cache_info().misses <= 1

    @pytest.mark.parametrize(
        "horizon, rate",
        [(1.0, 0.0), (1.0, math.nan), (1.0, math.inf), (math.nan, 0.5), (math.inf, 0.5), (0.0, 0.5), (-1.0, 0.5)],
        ids=["rate-zero", "rate-nan", "rate-inf", "horizon-nan", "horizon-inf", "horizon-zero", "horizon-negative"],
    )
    def test_rejects_nonpositive_rate(self, horizon, rate):
        with pytest.raises(ValueError):
            verify_ges([[1.0, 0.0]], horizon, rate)


class TestLogRadiusReduction:
    """verify_ges integrates rho = log|x| in place of the planar state."""

    @pytest.mark.parametrize("cut", [10**6, -1], ids=["row-loop", "numpy"])
    def test_radial_part_of_the_field_is_r_squared_g(self, monkeypatch, cut):
        # x.F(x, 0) = |x|^2 g(|x|) with g(r) = -1 + sin(r^2)/2, as the quarter
        # turn is tangential.  With s = sin(x1^2 + x2^2) rounded as the field
        # rounds it, the identity is exact in real arithmetic.  In floats, with
        # u = eps/2: F1 = ((x1 s/2 - x1) - x2) rounds three times, on terms of at
        # most |x1|/2, 3|x1|/2 and 3|x1|/2 + |x2|, so |x.dF| <= 4.5 u |x|^2; the
        # dot product adds 2u|x||F| <= 3.7 u |x|^2 (|F| <= 1.81|x|); the right
        # side, (x1^2 + x2^2)(s/2 - 1), rounds four times, 6 u |x|^2.  Together
        # 14.2 u = 7.1 eps, times |x|^2.  Radii span 1e-150 to 50, where the
        # squares stay normal floats.
        monkeypatch.setattr(counterexample, "_PYTHON_ROWS_MAX", cut)
        rng = np.random.default_rng(7)
        r = 10.0 ** rng.uniform(-150.0, math.log10(50.0), size=1000)
        theta = rng.uniform(0.0, 2 * math.pi, size=1000)
        x = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        dx = circle_field()(x, np.zeros(2))
        r2 = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]
        radial = x[:, 0] * dx[:, 0] + x[:, 1] * dx[:, 1]
        eps = np.finfo(float).eps
        assert np.all(np.abs(radial - r2 * (-1.0 + 0.5 * np.sin(r2))) <= 8 * eps * r2)
        # The log-radius field at rho = log hypot(x) reads x.F / |x|^2.  rho is
        # off by at most eps (|log r| + 1), so e^(2 rho) by a relative
        # eps (2|log r| + 3) and g by half that times r^2; the quotient is
        # within 7.1 eps + a rounding of g, and the field adds its own rounding.
        rho = np.log(np.hypot(x[:, 0], x[:, 1]))
        g = counterexample._LOG_RADIUS(rho[:, None], ())[:, 0]
        assert np.all(np.abs(g - radial / r2) <= eps * (r * r * (np.abs(np.log(r)) + 2.0) + 10.0))

    def test_visited_points_satisfy_the_polar_equations(self, monkeypatch):
        # The planar solution passes through (e^rho_k, theta0 + t_k); at each
        # of these points the Cartesian field has r' = f(r) and theta' = 1.
        starts = random_initial_conditions(100, 10.0, seed=0)
        traj, cert = recorded_ges_run(monkeypatch, starts, 20.0)
        assert cert.holds
        theta0 = np.arctan2(starts[:, 1], starts[:, 0])
        radii, angles = np.exp(traj.states[:, :, 0]), theta0 + traj.times[:, None]
        check = polar_equivalence_check(np.stack([radii, angles], axis=-1).reshape(-1, 2))
        assert check.holds and check.grid_spec["points"] == 100 * len(traj.times)

    def test_final_radius_matches_a_tight_planar_run(self, monkeypatch):
        # With no absolute floor on |x|, the default tolerances keep exp(rho(20))
        # within 1e-9 relative of a tight planar run at radii of 5e-9 to
        # 5e-8 (2.5e-10 here), where the default planar run is off by 1.9e-6.
        # The reference's abs_tol sits far below those radii: at 1e-15 a
        # planar run is itself off by 8.7e-10, at 1e-20 it agrees with a
        # log-radius run at 1e-13/1e-15 to 1.5e-14.
        starts = random_initial_conditions(100, 10.0, seed=3)
        traj, _ = recorded_ges_run(monkeypatch, starts, 20.0)
        planar = integrate(circle_field(), ConstantInput(np.zeros(2)), starts, (0.0, 20.0), IntegratorConfig(1e-13, 1e-20))
        radius = np.exp(traj.final_state[:, 0])
        assert traj.times[-1] == planar.times[-1] == 20.0
        np.testing.assert_allclose(radius, np.linalg.norm(planar.final_state, axis=1), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("norm, low, high", [(8.0, 1e-8, 4e-8), (9.0, 4e-8, 1e-7), (10.0, 4e-8, 1e-7)])
    def test_lone_start_error_is_set_by_its_transient_not_rel_tol(self, norm, low, high):
        # The step control is relative to |rho|, and local errors add up
        # through the oscillation of sin(e^(2 rho)) while |x| is large: a lone
        # start of norm 8, 9 or 10 ends off by 2.2e-8, 7.0e-8 and 7.9e-8 in
        # rho(20) against a 1e-13/1e-15 run, far above rel_tol = 1e-9.  The
        # transient is over by then, so the error stays flat in the horizon.
        def error(horizon):
            ends = [
                integrate(counterexample._LOG_RADIUS, ConstantInput(()), [math.log(norm)], (0.0, horizon), config)
                for config in (None, IntegratorConfig(1e-13, 1e-15))
            ]
            return abs(ends[0].final_state[0] - ends[1].final_state[0])

        assert low < error(20.0) < high
        assert error(2000.0) == pytest.approx(error(20.0), rel=1e-3)

    @pytest.mark.parametrize("count", [1, counterexample._PYTHON_ROWS_MAX + 1], ids=["row-loop", "numpy"])
    def test_start_past_sqrt_dbl_max_is_non_finite(self, count):
        # e^(2 rho) = |x|^2 overflows past sqrt(DBL_MAX) = 1.34e154, where
        # math.exp raises OverflowError and np.exp gives inf; either way the
        # field reads NaN and the run raises NonFiniteError, not OverflowError
        # or ValueError.
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(counterexample._LOG_RADIUS(np.full((count, 1), 355.0), ())).all()
            for start in ([1.4e154, 0.0], [1e154, 1e154], [1e300, -1e300]):
                with pytest.raises(NonFiniteError, match="non-finite at t=0.0$"):
                    verify_ges(np.tile([start], (count, 1)), 20.0, 0.5)

    @pytest.mark.parametrize("rows", [1, 2, 10, 11, 100])
    def test_row_loop_and_numpy_differ_by_exp_rounding_alone(self, monkeypatch, rows):
        # math.exp and np.exp may differ by one ulp, which sin carries over as
        # an absolute eps * e^(2 rho) and the halving scales by 1/2; the sum
        # then rounds once more.
        rho = np.log(np.linspace(1e-3, 10.0, rows))[:, None]
        branches = []
        for cut in (10**6, -1):
            monkeypatch.setattr(counterexample, "_PYTHON_ROWS_MAX", cut)
            branches.append(counterexample._LOG_RADIUS(rho, ()))
        eps = np.finfo(float).eps
        assert np.all(np.abs(branches[0] - branches[1]) <= eps * (0.5 * np.exp(2 * rho) + 1.5))


class TestIntegratorOracle:
    def test_one_forced_period_matches_mpmath_taylor_solver(self, r_star, forced_system):
        # mpmath's Taylor-series ODE solver shares no code with the Runge-Kutta
        # kernel; one period from just inside the orbit must agree to 1e-9.
        field, signal = forced_system
        x0 = [r_star - 0.1, 0.0]
        ours = integrate(field, signal, x0, (0.0, 2 * math.pi)).final_state
        with mp.workdps(15):
            a = mp.mpf(-radial_f(r_star))

            def rhs(t, z):
                x, y = z
                s = mp.sin(x * x + y * y)
                return [-x + x * s / 2 - y + a * mp.cos(t), -y + y * s / 2 + x + a * mp.sin(t)]

            ref = mp.odefun(rhs, 0, [mp.mpf(v) for v in x0])(mp.mpf(2 * math.pi))
        assert np.max(np.abs(ours - np.array([float(v) for v in ref]))) <= 1e-9


class TestRadialRate:
    """x . F(x, u(0)), half of d|x|^2/dt, for the forced system at x = r (cos theta, sin theta)."""

    @staticmethod
    def rate(forced_system, r, theta):
        field, signal = forced_system
        theta = np.atleast_1d(theta)
        x = r * np.column_stack([np.cos(theta), np.sin(theta)])
        return np.vecdot(x, field(x, signal.eval(0.0)))

    def test_on_orbit_tangency(self, r_star, forced_system):
        assert self.rate(forced_system, r_star, 0.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_inside_worst_case_is_negative(self, r_star, forced_system):
        r = r_star - 0.05
        worst = np.max(self.rate(forced_system, r, np.linspace(0, 2 * math.pi, 720)))
        assert worst < 0
        assert worst == pytest.approx(r * (radial_f(r) - radial_f(r_star)), abs=1e-10)

    def test_opposite_phase_strictly_smaller(self, r_star, forced_system):
        assert np.diff(self.rate(forced_system, r_star - 0.05, [0.0, math.pi]))[0] < 0


class TestPolarEquivalence:
    def test_grid_holds(self):
        pts = [(r, th) for r in np.linspace(0.1, 10, 50) for th in np.linspace(0, 2 * math.pi, 50)]
        cert = polar_equivalence_check(pts)
        assert cert.holds
        assert cert.margin <= 1e-12

    def test_single_point_closed_form(self):
        field = circle_field()
        dx = field([1.0, 0.0], [0.0, 0.0])
        assert dx[0] == pytest.approx(radial_f(1.0), abs=1e-15)
        assert dx[1] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            polar_equivalence_check([(0.0, 0.0)])

    @pytest.mark.parametrize("points", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_rejects_no_points(self, points):
        with pytest.raises(ValueError, match="one or more"):
            polar_equivalence_check(points)

    @pytest.mark.parametrize("points", [[(1.0, 0.0, 0.0)], [1.0, 0.0]], ids=["triple", "flat"])
    def test_rejects_malformed_points(self, points):
        with pytest.raises(ValueError, match="one or more"):
            polar_equivalence_check(points)

    def test_rejects_negative_radius_after_a_valid_point(self):
        with pytest.raises(ValueError, match="r > 0"):
            polar_equivalence_check([(1.0, 0.0), (-1.0, 0.0)])

    @pytest.mark.parametrize(
        "points", [[(1.0, 0.0), (1e200, 0.0)], [(1e200, 0.0), (1.0, 0.0)]], ids=["nan-last", "nan-first"]
    )
    def test_non_finite_deviation_raises(self, points):
        # r^2 overflows at r = 1e200, so that point's deviation is NaN; it must
        # not be skipped by the reduction, whatever its position.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            polar_equivalence_check(points)


class TestRandomInitialConditions:
    def test_within_disk_and_deterministic(self):
        a = random_initial_conditions(100, 10.0, seed=0)
        b = random_initial_conditions(100, 10.0, seed=0)
        assert np.array_equal(a, b)
        assert np.all(np.linalg.norm(a, axis=1) <= 10.0)
        assert np.array_equal(random_initial_conditions(3, 0.0), np.zeros((3, 2)))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_rejects_negative_or_non_finite_radius(self, radius):
        # NaN gave rows of NaN and -1 gave points of the unit disk.
        with pytest.raises(ValueError, match=f"got {radius}$"):
            random_initial_conditions(3, radius)
