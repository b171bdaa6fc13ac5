import math

import numpy as np
import pytest

from contraction_lab.contraction import linear_additive_field, scalar_example_system
from contraction_lab.counterexample import circle_field
from contraction_lab.dynamics import (
    ConcatenatedInput,
    ConstantInput,
    IntegratorConfig,
    PeriodicInput,
    PiecewiseConstantInput,
    Trajectory,
    VectorField,
    concat,
    integrate,
    shift_signal,
)
from contraction_lab.errors import NonFiniteError, StepSizeUnderflowError
from contraction_lab.flowspace import PiecewiseSchedule, check_piecewise_contraction, flow_from_field

TWO_PI = 2 * math.pi


def decay_field():
    return VectorField(lambda x, u: -x, 1, 1)


def forced_linear():
    return VectorField(lambda x, u: -x + u, 1, 1, jacobian=lambda x, u: np.array([[-1.0]]))


def sine_input():
    return PeriodicInput(TWO_PI, lambda t: [math.sin(t)])


def linear_sine_solution(t, x0=0.0):
    # particular solution (sin t - cos t)/2 plus decaying homogeneous part
    return (math.sin(t) - math.cos(t)) / 2 + (x0 + 0.5) * math.exp(-t)


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(decay_field(), ConstantInput([0.0]), [1.0], (0.0, 1.0))
        assert traj.final_state[0] == pytest.approx(math.exp(-1), abs=1e-8)

    def test_harmonic_oscillator_period(self):
        field = VectorField(lambda x, u: np.array([x[1], -x[0]]), 2, 1)
        traj = integrate(field, ConstantInput([0.0]), [1.0, 0.0], (0.0, TWO_PI))
        assert np.linalg.norm(traj.final_state - [1.0, 0.0]) < 1e-7

    def test_sine_forced_particular_solution(self):
        traj = integrate(forced_linear(), sine_input(), [0.0], (0.0, 50.0))
        assert traj.final_state[0] == pytest.approx(linear_sine_solution(50.0), abs=1e-6)

    def test_requires_forward_span(self):
        with pytest.raises(ValueError):
            integrate(decay_field(), ConstantInput([0.0]), [1.0], (1.0, 0.0))

    def test_rejects_nonfinite_start(self):
        with pytest.raises(NonFiniteError):
            integrate(decay_field(), ConstantInput([0.0]), [np.nan], (0.0, 1.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate(decay_field(), ConstantInput([0.0, 1.0]), [1.0], (0.0, 1.0))

    def test_nonfinite_dynamics_raise(self):
        # The dynamics hit a NaN wall at x = 1; step reduction cannot save it.
        field = VectorField(lambda x, u: np.array([1.0 if x[0] < 1.0 else np.nan]), 1, 1)
        with pytest.raises(NonFiniteError):
            integrate(field, ConstantInput([0.0]), [0.5], (0.0, 2.0))

    def test_unresolvable_kink_underflows(self):
        # A switching surface crossed at huge speed forces the accepted step
        # below the resolvable fraction of the span.
        field = VectorField(lambda x, u: np.array([1e9 if x[0] < 0.5 else -1e9]), 1, 1)
        with pytest.raises(StepSizeUnderflowError):
            integrate(field, ConstantInput([0.0]), [0.0], (0.0, 2.0))

    def test_flow_property(self):
        field = forced_linear()
        sig = sine_input()
        whole = integrate(field, sig, [0.7], (0.0, 2.0)).final_state
        half = integrate(field, sig, [0.7], (0.0, 1.0)).final_state
        glued = integrate(field, sig, half, (1.0, 2.0)).final_state
        assert np.linalg.norm(whole - glued) < 10 * 1e-9 * max(1.0, np.linalg.norm(whole))

    def test_time_shift_covariance(self):
        field = forced_linear()
        sig = sine_input()
        shift = 1.37
        base = integrate(field, sig, [0.4], (0.5, 3.5)).final_state
        moved = integrate(field, shift_signal(sig, shift), [0.4], (0.5 - shift, 3.5 - shift)).final_state
        assert np.linalg.norm(base - moved) < 10 * 1e-9 * max(1.0, np.linalg.norm(base))

    def test_nonfinite_interior_stage_is_retried(self):
        # Field call 11 is stage 3 of the second step (call 1 is the first
        # derivative, call 2 the starting-step probe, then six per step).
        # That step is rejected and retried at a quarter of its length.
        def poisoned(bad_call):
            calls = []

            def f(x, u):
                calls.append(None)
                return np.full_like(x, np.nan) if len(calls) == bad_call else -x

            return VectorField(f, 1, 1)

        clean = integrate(poisoned(None), ConstantInput([0.0]), [1.0], (0.0, 1.0))
        traj = integrate(poisoned(11), ConstantInput([0.0]), [1.0], (0.0, 1.0))
        assert traj.times[1] == clean.times[1]
        assert traj.times[2] - traj.times[1] == pytest.approx(0.25 * (clean.times[2] - clean.times[1]))
        assert np.all(np.isfinite(traj.states))
        assert traj.final_state[0] == pytest.approx(math.exp(-1), abs=1e-9)

    def test_restarts_at_breakpoints(self):
        sig = PiecewiseConstantInput([0.5], [[0.0], [1.0]])
        traj = integrate(forced_linear(), sig, [0.0], (0.0, 1.0))
        assert 0.5 in traj.times.tolist()
        assert traj.final_state[0] == pytest.approx(1 - math.exp(-0.5), abs=1e-9)

    def test_fifth_order_step_halving(self):
        # A fifth-order step has local error O(h^6): with loose tolerances a
        # span of length h is one accepted step, and halving h must shrink
        # its error at least 32-fold (64 in the limit).
        errs, cfg = [], IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3)
        for h in (0.1, 0.05):
            traj = integrate(decay_field(), ConstantInput([0.0]), [1.0], (0.0, h), cfg)
            assert len(traj.times) == 2
            errs.append(abs(traj.final_state[0] - math.exp(-h)))
        assert errs[0] / errs[1] >= 32.0

    def test_tightening_tolerance_improves_accuracy(self):
        errs = []
        for rt in (1e-6, 1e-8):
            cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2)
            traj = integrate(decay_field(), ConstantInput([0.0]), [1.0], (0.0, 1.0), cfg)
            errs.append(abs(traj.final_state[0] - math.exp(-1)))
        assert errs[1] < errs[0]


def linear_piecewise_solution(x0, t_span, breakpoints, values):
    """x' = -x + u from ``x0`` under a piecewise-constant u, piece by piece."""
    cuts = [t_span[0], *breakpoints, t_span[1]]
    x = np.asarray(x0, dtype=float)
    for a, b, c in zip(cuts[:-1], cuts[1:], np.ravel(values)):
        x = c + (x - c) * math.exp(-(b - a))
    return x


class TestBreakpoints:
    # Pieces far shorter than 1e-14 of the span: the step that lands on the
    # piece end is as short as the piece, and that is not an underflow.
    @pytest.mark.parametrize("breakpoints", [[0.5, 0.5 + 2e-15], [1e-15, 0.5]])
    def test_short_piece_integrates(self, breakpoints):
        values = [0.0, 1.0, 2.0]
        traj = integrate(forced_linear(), PiecewiseConstantInput(breakpoints, values), [0.0], (0.0, 1.0))
        exact = linear_piecewise_solution(0.0, (0.0, 1.0), breakpoints, values)
        assert traj.final_state[0] == pytest.approx(exact, abs=1e-9)

    def test_short_schedule_piece_certifies(self):
        flow = flow_from_field(forced_linear())
        sched = PiecewiseSchedule([[0.5], [-0.5], [0.2]], [0.5, 1e-15, 0.5], 0.0, 1.0)
        cert = check_piecewise_contraction(flow, (-1.0, 1.0), -1.0, sched, [([1.0], [-1.0])])
        assert cert.holds
        assert cert.margin == pytest.approx(math.exp(-1.0), rel=1e-7)

    def test_step_size_carries_across_pieces(self):
        # One 7-evaluation step per piece suffices for x' = -x + u on pieces
        # of about 2pi/1024, if the step size carries from piece to piece.
        rng = np.random.default_rng(8)
        pieces = 1024
        breakpoints = np.sort(rng.uniform(0.0, TWO_PI, pieces - 1))
        values = rng.uniform(-1.0, 1.0, pieces)
        calls = 0

        def f(x, u):
            nonlocal calls
            calls += 1
            return -x + u

        starts = [[1.0], [-2.0], [3.0]]
        sig = PiecewiseConstantInput(breakpoints, values)
        traj = integrate(VectorField(f, 1, 1), sig, starts, (0.0, TWO_PI))
        assert calls <= 8 * pieces
        exact = linear_piecewise_solution(starts, (0.0, TWO_PI), breakpoints, values)
        assert np.max(np.abs(traj.final_state - exact)) <= 1e-9

    def test_carried_step_too_long_is_shrunk(self):
        # The step carried over the jump from u = 1 to u = 100 is far too long
        # for the stiffer piece; it must be rejected and shrunk, not accepted.
        field = VectorField(lambda x, u: -u * x, 1, 1)
        sig = PiecewiseConstantInput([0.5], [[1.0], [100.0]])
        traj = integrate(field, sig, [1.0], (0.0, 0.6))
        assert abs(traj.final_state[0] - math.exp(-10.5)) <= 1e-10


class TestTrajectory:
    def test_lockstep_step_ends_match_closed_form(self):
        # A trajectory is its accepted steps: row k of every batch state is
        # start k's solution at that step end, within the step tolerance.
        starts = [[1.0], [2.0], [3.0]]
        traj = integrate(forced_linear(), sine_input(), starts, (0.0, 2.0))
        assert traj.states.shape == (len(traj.times), 3, 1)
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
        for k, x0 in enumerate(starts):
            exact = [linear_sine_solution(t, x0[0]) for t in traj.times]
            assert np.max(np.abs(traj.states[:, k, 0] - exact)) <= 1e-9

    # A batch takes other steps than a single start, so the two agree to the
    # global error; at this tolerance that is well under 1e-8.
    TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)

    @pytest.mark.parametrize("span", [(0.0, 0.7), (0.0, 1.9), (0.0, 1.0)])
    def test_lockstep_batch_matches_single_runs(self, span):
        # Row k of a batch ends where start k's own run ends.
        starts = [[1.0], [2.0], [3.0]]
        batch = integrate(forced_linear(), sine_input(), starts, span, self.TIGHT).final_state
        assert batch.shape == (3, 1)
        for k, x0 in enumerate(starts):
            alone = integrate(forced_linear(), sine_input(), x0, span, self.TIGHT).final_state
            assert alone.shape == (1,)
            assert np.max(np.abs(batch[k] - alone)) <= 1e-8
            assert abs(batch[k, 0] - linear_sine_solution(span[1], x0[0])) <= 1e-8

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0, 1.0], [[0.0], [1.0], [2.0]])

    def test_rejects_nonfinite_states(self):
        with pytest.raises(NonFiniteError):
            Trajectory([0.0, 1.0], [[0.0], [np.inf]])


class TestInputSignals:
    def test_concat_before_boundary(self):
        sig = concat(ConstantInput([1.0]), ConstantInput([2.0]), 0.0)
        assert sig.eval(-1.0)[0] == 1.0

    def test_concat_boundary_is_right_inclusive(self):
        sig = concat(ConstantInput([1.0]), ConstantInput([2.0]), 0.0)
        assert sig.eval(0.0)[0] == 2.0
        assert sig.eval_left(0.0)[0] == 1.0

    def test_concat_of_sines_continuity(self):
        u = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
        v = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
        sig = concat(u, v, math.pi)
        for t in (0.3, math.pi, 4.0):
            assert sig.eval(t)[0] == pytest.approx(math.sin(t), abs=1e-15)

    def test_concat_dimension_check(self):
        with pytest.raises(ValueError):
            concat(ConstantInput([1.0]), ConstantInput([1.0, 2.0]), 0.0)

    def test_shift_of_constant(self):
        sig = shift_signal(ConstantInput([3.0]), 17.0)
        assert sig.eval(123.0)[0] == 3.0

    def test_shift_sin_by_quarter_period(self):
        sig = shift_signal(PeriodicInput(TWO_PI, lambda t: [math.sin(t)]), math.pi / 2)
        for t in np.linspace(0, 10, 23):
            assert sig.eval(t)[0] == pytest.approx(math.cos(t), abs=1e-12)

    def test_shift_moves_breakpoints(self):
        sig = PiecewiseConstantInput([1.0, 2.0], [[0.0], [1.0], [2.0]])
        moved = shift_signal(sig, 0.5)
        assert moved.breakpoints.tolist() == [0.5, 1.5]
        assert moved.eval(0.6)[0] == sig.eval(1.1)[0]

    def test_piecewise_requires_ascending_breakpoints(self):
        for breakpoints in ([1.0, 1.0], [1.0, math.nan], [math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]):
            with pytest.raises(ValueError):
                PiecewiseConstantInput(breakpoints, [[0.0], [1.0], [2.0]])

    def test_piecewise_requires_finite_values(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                PiecewiseConstantInput([1.0], [[0.0], [value]])

    # Breakpoints 1 and 2: values[i] holds on [bp[i-1], bp[i]).
    @pytest.mark.parametrize(
        "t, right, left",
        [(0.5, 0.0, 0.0), (1.0, 1.0, 0.0), (1.5, 1.0, 1.0), (2.0, 2.0, 1.0), (2.5, 2.0, 2.0)],
    )
    def test_piecewise_lookup(self, t, right, left):
        sig = PiecewiseConstantInput([1.0, 2.0], [[0.0], [1.0], [2.0]])
        assert sig.eval(t)[0] == right
        assert sig.eval_left(t)[0] == left

    @pytest.mark.parametrize(
        "t0, t1, inside",
        [
            (0.0, 3.0, [1.0, 2.0]),
            (1.0, 2.0, []),
            (0.5, 2.0, [1.0]),
            (1.0, 2.5, [2.0]),
            (1.5, 1.7, []),
            (-1.0, 0.5, []),
            (2.5, 3.0, []),
        ],
    )
    def test_piecewise_breakpoints_in_open_interval(self, t0, t1, inside):
        sig = PiecewiseConstantInput([1.0, 2.0], [[0.0], [1.0], [2.0]])
        assert sig.breakpoints_in(t0, t1) == inside

    def test_piecewise_value_count(self):
        with pytest.raises(ValueError):
            PiecewiseConstantInput([1.0], [[0.0]])

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            PeriodicInput(1.0, lambda t: [t])
        for period in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="period must be finite and positive"):
                PeriodicInput(period, lambda t: [math.sin(t)])

    def test_concatenation_breakpoints_collected(self):
        inner = PiecewiseConstantInput([0.25], [[0.0], [1.0]])
        sig = ConcatenatedInput(inner, ConstantInput([5.0]), 0.5)
        assert sig.breakpoints_in(0.0, 1.0) == [0.25, 0.5]


class TestVectorField:
    def test_finite_difference_jacobian_matches_analytic(self, rng):
        def f(x, u):
            return np.array([math.sin(x[0]) * x[1], x[0] * x[0] - u[0] * x[1]])

        def jac(x, u):
            return np.array([[math.cos(x[0]) * x[1], math.sin(x[0])], [2 * x[0], -u[0]]])

        numeric = VectorField(f, 2, 1)
        analytic = VectorField(f, 2, 1, jacobian=jac)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            u = rng.uniform(-1, 1, size=1)
            ja, jn = analytic.jacobian_x(x, u), numeric.jacobian_x(x, u)
            assert np.allclose(jn, ja, rtol=1e-4, atol=1e-6)

    def test_scalar_field_result_raises_in_integrate(self):
        # Broadcast, the scalar would drive both components at x' = -1.
        field = VectorField(lambda x, u: -1.0, 2, 1)
        with pytest.raises(ValueError, match="shape"):
            integrate(field, ConstantInput([0.0]), [1.0, 5.0], (0.0, 1.0))

    def test_vector_jacobian_raises(self):
        field = VectorField(lambda x, u: -x, 2, 1, jacobian=lambda x, u: -x)
        with pytest.raises(ValueError, match="shape"):
            field.jacobian_x([1.0, 5.0], [0.0])

    def test_state_independent_jacobian_broadcasts_over_a_stack(self):
        field = VectorField(lambda x, u: -x, 2, 1, jacobian=lambda x, u: -np.eye(2))
        assert np.array_equal(field.jacobian_x(np.ones((3, 2)), [0.0]), np.broadcast_to(-np.eye(2), (3, 2, 2)))

    def test_per_row_inputs_need_a_declaration(self):
        calls = []

        def f(x, u):
            calls.append(u)
            return -x + u

        with pytest.raises(ValueError, match="per_row_inputs"):
            VectorField(f, 1, 1)(np.ones((3, 1)), np.zeros((3, 1)))
        assert not calls
        declared = VectorField(f, 1, 1, per_row_inputs=True)
        assert np.array_equal(declared(np.ones((3, 1)), [[0.0], [1.0], [2.0]]), [[-1.0], [0.0], [1.0]])
        # one input row per state
        for x, u in ((np.ones((3, 1)), np.zeros((2, 1))), (np.ones(1), np.zeros((1, 1)))):
            with pytest.raises(ValueError, match="per_row_inputs"):
                declared(x, u)

    @pytest.mark.parametrize(
        "make", [lambda: linear_additive_field(2), lambda: scalar_example_system()[0], circle_field]
    )
    def test_stock_per_row_inputs_match_shared_input_calls(self, make, rng):
        field = make()
        assert field.per_row_inputs
        x = rng.uniform(-3.0, 3.0, size=(9, field.state_dim))
        u = rng.uniform(-2.0, 2.0, size=(9, field.input_dim))
        rows = field(x, u)
        for i in range(len(x)):
            assert np.array_equal(rows[i], field(x[i], u[i]))
            assert np.array_equal(rows[i : i + 1], field(x[i : i + 1], u[i]))


class TestIntegratorConfig:
    def test_rejects_bad_tolerances(self):
        # A NaN tolerance never lets a step be accepted, and an infinite
        # abs_tol accepts any step.
        bad = [
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            {"rel_tol": math.nan},
            {"abs_tol": math.nan},
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                IntegratorConfig(**kwargs)


class TestGoldenBits:
    """Exact step counts and final bits of two reference runs.

    Any change to the integrator's arithmetic, its step-size control or its
    input lookups moves these values; a rewrite that claims the same
    numbers must leave them untouched.  They were recorded with NumPy 2.4
    on x86-64; another BLAS may round the stage sums differently.
    """

    def test_forced_orbit_over_one_period(self, forced_system, r_star):
        field, signal = forced_system
        traj = integrate(field, signal, [r_star, 0.0], (0.0, TWO_PI))
        assert len(traj.times) - 1 == 131
        assert [float(v).hex() for v in traj.final_state] == ["0x1.653f1ba2347e5p+1", "-0x1.b5fb4b0000000p-31"]

    def test_lockstep_batch_under_sixteen_pieces(self):
        k = np.arange(16)
        signal = PiecewiseConstantInput(
            np.linspace(0.0, TWO_PI, 17)[1:-1], np.column_stack([(5 * k % 7 - 3) / 4, (3 * k % 5 - 2) / 2])
        )
        starts = [[1.0, 0.0], [0.0, -2.0], [-0.5, 0.25]]
        traj = integrate(circle_field(), signal, starts, (0.0, TWO_PI))
        assert len(traj.times) - 1 == 239
        assert [[float(v).hex() for v in row] for row in traj.final_state] == [
            ["-0x1.8a9dfc5530324p-8", "-0x1.168c5afb19b3ep-2"],
            ["-0x1.2ab7c35f216eap-7", "-0x1.20168342da579p-2"],
            ["-0x1.4ff95ca9a287cp-7", "-0x1.15e4d7d8f135ep-2"],
        ]
