import math

import numpy as np
import pytest

from contraction_lab import counterexample, dynamics, flowspace
from contraction_lab.constant_metric import example_3d_system
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


# Every stock field of the library, the contract tests' subjects.
CONTRACT_FIELDS = {
    "circle": circle_field,
    "linear-1d": lambda: linear_additive_field(1),
    "linear-2d": lambda: linear_additive_field(2),
    "linear-3d": lambda: linear_additive_field(3),
    "scalar-example": lambda: scalar_example_system()[0],
    "example-3d": lambda: example_3d_system()[0],
}


def malformed_inputs(field, rows):
    """Every input the field contract refuses with ``rows`` states (None: one state)."""
    m, n = field.input_dim, rows or 1
    bad = [np.array(0.5), np.zeros(m - 1), np.zeros(m + 1), np.zeros((n, 1, m)), np.zeros((n, m + 1)), np.zeros((n + 1, m))]
    if rows is None or not field.per_row_inputs:
        bad.append(np.zeros((n, m)))  # one row per state, where the field takes none
    return bad


def schedule_of(pieces):
    """``pieces`` random values over the span [0, 2], on pieces of random length."""
    rng = np.random.default_rng(64)
    values = rng.uniform(-1.0, 1.0, size=(pieces, 1))
    fractions = rng.uniform(0.5, 1.5, size=pieces)
    return PiecewiseSchedule(values, fractions / fractions.sum(), 0.0, 2.0)


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

    @pytest.mark.parametrize(
        "t_span", [(1.0, 0.0), (0.0, math.inf), (-math.inf, 1.0)], ids=["backward", "endless", "beginningless"]
    )
    def test_requires_forward_span(self, t_span):
        with pytest.raises(ValueError):
            integrate(decay_field(), ConstantInput([0.0]), [1.0], t_span)

    def test_rejects_nonfinite_start(self):
        with pytest.raises(NonFiniteError):
            integrate(decay_field(), ConstantInput([0.0]), [np.nan], (0.0, 1.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate(decay_field(), ConstantInput([0.0, 1.0]), [1.0], (0.0, 1.0))
        # An empty batch is refused before the starting step is estimated.
        with pytest.raises(ValueError, match=r"shape \(0, 1\)"):
            integrate(decay_field(), ConstantInput([0.0]), np.zeros((0, 1)), (0.0, 1.0))
        with pytest.raises(ValueError, match=r"shape \(1, 1, 1\)"):
            integrate(decay_field(), ConstantInput([0.0]), np.zeros((1, 1, 1)), (0.0, 1.0))

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
        moved = integrate(field, sig.shifted(shift), [0.4], (0.5 - shift, 3.5 - shift)).final_state
        assert np.linalg.norm(base - moved) < 10 * 1e-9 * max(1.0, np.linalg.norm(base))

    def test_nonfinite_interior_stage_is_retried(self):
        # Field call 17 is stage 3 of the second step: call 1 is the first
        # derivative, call 2 the starting-step probe, then the 8(5,3) pair
        # makes eleven calls a step and one more, the new state's derivative,
        # once the step stands.  That step is rejected and retried at a
        # quarter of its length.
        def poisoned(bad_call):
            calls = []

            def f(x, u):
                calls.append(None)
                return np.full_like(x, np.nan) if len(calls) == bad_call else -x

            return VectorField(f, 1, 1)

        clean = integrate(poisoned(None), ConstantInput([0.0]), [1.0], (0.0, 1.0))
        traj = integrate(poisoned(17), ConstantInput([0.0]), [1.0], (0.0, 1.0))
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

    def test_eighth_order_step_halving(self):
        # x' = u x holds still under u = 0 until t = 1, so the run, whose two
        # pieces are far longer than its 1e-6 starting step, takes the 8(5,3)
        # pair and lands on t = 1 exactly.  The last piece, h long under
        # u = -1, is one step with error O(h^9): halving h must shrink it at
        # least 256-fold (512 in the limit), or to the rounding floor.
        errs, cfg = [], IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3)
        for h in (0.8, 0.4):
            signal = PiecewiseConstantInput([1.0], [[0.0], [-1.0]])
            traj = integrate(VectorField(lambda x, u: u * x, 1, 1), signal, [1.0], (0.0, 1.0 + h), cfg)
            assert traj.times[-2] == 1.0
            errs.append(abs(traj.final_state[0] - math.exp(1.0 - traj.times[-1])))
        assert errs[1] <= max(errs[0] / 256, 2**-52)

    # Mean piece against the starting step: 180 for 2 pieces, 106 for the
    # 1e-3 first piece, whose end cuts the first step but not the proposal,
    # and 5.6 for 64 pieces.
    @pytest.mark.parametrize(
        "signal, low, high",
        [
            (schedule_of(2), 11, 12),
            (PiecewiseConstantInput([1e-3, 1.0], [0.0, 1.0, 2.0]), 11, 12),
            (schedule_of(64), 6, 6),
        ],
        ids=["8(5,3)", "8(5,3)-short-first-piece", "5(4)"],
    )
    def test_field_calls_per_step_follow_the_pair(self, signal, low, high):
        # Pieces of at least 8 starting steps on average take the 8(5,3)
        # pair: eleven calls a step and the new state's derivative, except
        # at a piece end.  Shorter ones take the 5(4) pair's six.  No step
        # of these runs is rejected.
        calls = 0
        pieces = len(signal.breakpoints_in(0.0, 2.0)) + 1

        def f(x, u):
            nonlocal calls
            calls += 1
            return -x + u

        traj = integrate(VectorField(f, 1, 1), signal, [[0.3], [-1.2], [2.0]], (0.0, 2.0))
        # One derivative per piece and the starting-step probe, then the steps.
        per_step = (calls - pieces - 1) / (len(traj.times) - 1)
        assert low <= per_step <= high

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
    # piece end is as short as the piece, and that is not an underflow.  A
    # short first piece cuts the first step, not the proposal the next piece
    # starts from.
    @pytest.mark.parametrize(
        "breakpoints", [[0.5, 0.5 + 2e-15], [1e-15, 0.5], [3e-16, 0.5], [1e-17, 0.5], [1e-300, 0.5]]
    )
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


class TestPairs:
    def test_tableaus_are_consistent_and_dop853_is_hairers(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(dynamics._A853, coefficients.A[:13, :13])
        assert dynamics._C853 == tuple(coefficients.C[:13])
        assert np.array_equal(dynamics._E853, [coefficients.E5[:12], coefficients.E3[:12]])
        # Both estimates leave out stage 13, the derivative at the solution.
        assert coefficients.E5[12] == coefficients.E3[12] == 0.0
        for c, a in ((dynamics._C, dynamics._A), (dynamics._C853, dynamics._A853)):
            # Row sums are the nodes (A 1 = c); the last row, the solution's weights, sums to 1.
            assert np.allclose(a.sum(axis=1), c, rtol=0.0, atol=1e-14)
            assert a[-1].sum() == pytest.approx(1.0, abs=1e-14)


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

    @pytest.mark.parametrize(
        "times, states",
        [([0.0, 1.0, 1.0], [[0.0], [1.0], [2.0]]), ([0.0, 1.0], [[1.0], [2.0], [3.0]])],
        ids=["repeated-time", "extra-state"],
    )
    def test_rejects_non_increasing_times(self, times, states):
        with pytest.raises(ValueError):
            Trajectory(times, states)

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
        # A NaN switch time would make the signal v everywhere, with no breakpoint.
        with pytest.raises(ValueError, match="finite"):
            concat(ConstantInput([1.0]), ConstantInput([2.0]), math.nan)

    def test_shift_sin_by_quarter_period(self):
        sig = PeriodicInput(TWO_PI, lambda t: [math.sin(t)]).shifted(math.pi / 2)
        for t in np.linspace(0, 10, 23):
            assert sig.eval(t)[0] == pytest.approx(math.cos(t), abs=1e-12)

    @pytest.mark.parametrize("offset", [1e8, 1e10])
    def test_shift_by_large_offset_is_not_checked_again(self, offset):
        # At these offsets rounding alone would fail the 1e-9 spot check, and a
        # shift cannot break periodicity: it makes no fn call.
        calls = []

        def fn(t):
            calls.append(t)
            return [math.sin(t)]

        base = PeriodicInput(TWO_PI, fn)
        calls.clear()
        sig = base.shifted(offset)
        assert calls == []
        for t in (0.0, 0.3, 2.5, -7.0):
            assert sig.eval(t).tolist() == fn(t + offset)
        assert sig.period == TWO_PI and sig.dim == 1
        with pytest.raises(ValueError, match="periodic"):
            PeriodicInput(TWO_PI, lambda t: [math.sin(t) + 1e-3 * t])

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

    def test_step_signals_are_read_only(self):
        # eval hands out views of the signal's own arrays, so a field that
        # writes into its input raises instead of changing the signal.
        def f(x, u):
            u += 1.0
            return -x + u

        signals = [
            ConstantInput([0.5]),
            PiecewiseConstantInput([0.5], [[0.5], [-1.0]]),
            PiecewiseSchedule([[0.5], [-1.0]], [0.5, 0.5], 0.0, 1.0),
        ]
        for signal in signals:
            before = signal.eval(0.0).copy()
            with pytest.raises(ValueError, match="read-only"):
                integrate(VectorField(f, 1, 1), signal, [1.0], (0.0, 1.0))
            assert signal.eval(0.0).tobytes() == before.tobytes()
        for array in (signals[0].value, signals[1].values, signals[1].breakpoints, signals[2].values):
            assert not array.flags.writeable

    def test_constant_is_a_step_signal_with_no_cuts(self):
        sig = ConstantInput([0.5, -1.0])
        assert isinstance(sig, PiecewiseConstantInput)
        assert sig.dim == 2 and sig.breakpoints_in(-1e9, 1e9) == []
        for t in (-1e9, 0.0, 3.5):
            assert sig.eval(t).tolist() == sig.eval_left(t).tolist() == sig.value.tolist() == [0.5, -1.0]
        assert not sig.value.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sig.value[0] = 2.0
        # a per-row value: one input of dimension 1 for each of two states
        assert ConstantInput([[1.0], [2.0]]).dim == 1
        assert ConstantInput(0.25).value.tolist() == [0.25] and ConstantInput(()).dim == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constant_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ConstantInput([bad])

    def test_piecewise_per_row_values(self):
        values = [[[1.0], [2.0], [3.0]], [[-1.0], [0.0], [0.5]]]
        sig = PiecewiseConstantInput([0.5], values)
        assert sig.dim == 1 and sig.eval(0.7).tolist() == values[1] and sig.eval_left(0.5).tolist() == values[0]
        for bad in ([values[0]], [values[0], [[0.0], [math.nan], [1.0]]], np.zeros((2, 3, 1, 1))):
            with pytest.raises(ValueError):
                PiecewiseConstantInput([0.5], bad)
        calls = []

        def f(x, u):
            calls.append(u.shape)
            return -x + u

        x0 = np.zeros((3, 1))
        with pytest.raises(ValueError, match="per_row_inputs"):
            integrate(VectorField(f, 1, 1), sig, x0, (0.0, 1.0))
        assert not calls
        # one row per state, each the state's own step signal
        final = integrate(VectorField(f, 1, 1, per_row_inputs=True), sig, x0, (0.0, 1.0)).final_state
        assert set(calls) == {(3, 1)}
        for row, (a, b) in enumerate(zip(values[0], values[1])):
            alone = integrate(VectorField(f, 1, 1), PiecewiseConstantInput([0.5], [a, b]), x0[row], (0.0, 1.0))
            assert final[row] == pytest.approx(alone.final_state, abs=1e-9)

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            PeriodicInput(1.0, lambda t: [t])
        for period in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="period must be finite and positive"):
                PeriodicInput(period, lambda t: [math.sin(t)])

    @pytest.mark.parametrize("step, accepted", [(0.9e-9, True), (1.1e-9, False)])
    def test_periodic_spot_check_times_tolerance_and_first_failure(self, step, accepted):
        # fn(0) gives the dimension; then the 8 times k*period/8 and their
        # shifts by one period, each compared with rtol = atol = 1e-9.
        calls = []

        def fn(t):
            calls.append(t)
            return [0.0, step * (t >= 2.75)]

        if not accepted:
            with pytest.raises(ValueError, match=r"^signal is not 2.0-periodic at t=0.75$"):
                PeriodicInput(2.0, fn)
            return
        PeriodicInput(2.0, fn)
        assert calls[0] == 0.0
        assert sorted(calls[1:]) == sorted([k / 4.0 for k in range(8)] + [2.0 + k / 4.0 for k in range(8)])

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
    def test_stock_per_row_inputs_match_shared_input_calls(self, make, rng, bit_test_states):
        # Byte for byte: the golden artifacts print %.17g, where -0 and 0 differ.
        # The circle field's row loop serves shared inputs only, so batches on
        # both sides of its cut take the NumPy branch here.
        field = make()
        assert field.per_row_inputs
        x = bit_test_states(field.state_dim)
        u = rng.uniform(-2.0, 2.0, size=(len(x), field.input_dim))
        u[:3] = 0.0  # the rows with exact zeros are also unforced
        singles = np.array([field(x[i], u[i]) for i in range(len(x))])
        for i in range(len(x)):
            assert field(x[i : i + 1], u[i]).tobytes() == singles[i].tobytes()
        for size in [*range(1, counterexample._PYTHON_ROWS_MAX + 2), 100]:
            for i in range(0, len(x), size):
                rows = slice(i, i + size)
                assert field(x[rows], u[rows]).tobytes() == singles[rows].tobytes()

    @pytest.mark.parametrize("rows", [None, 3, 6, 12])
    @pytest.mark.parametrize("make", CONTRACT_FIELDS.values(), ids=CONTRACT_FIELDS)
    def test_malformed_inputs_are_refused_before_the_field_runs(self, make, rows, monkeypatch):
        field = make()
        m = field.input_dim
        calls = []

        def counted(fn):
            def wrapper(x, u):
                calls.append(u.shape)
                return fn(x, u)

            return wrapper

        monkeypatch.setattr(field, "_f", counted(field._f))
        monkeypatch.setattr(field, "_jacobian", counted(field._jacobian))
        x = np.ones(field.state_dim) if rows is None else np.ones((rows, field.state_dim))
        refused = [(field, u) for u in malformed_inputs(field, rows)]
        refused += [(field.jacobian_x, u) for u in malformed_inputs(field, rows)]
        if field.per_row_inputs and rows is not None:
            refused.append((field.jacobian_x, np.zeros((rows, m))))  # the Jacobian takes a shared input only
        for evaluate, u in refused:
            with pytest.raises(ValueError, match="per_row_inputs") as error:
                evaluate(x, u)
            assert f"shape {u.shape} " in str(error.value)
            assert f"need ({m},), or (N, {m})" in str(error.value)
        assert not calls
        field(x, np.zeros(m))
        field.jacobian_x(x, np.zeros(m))
        assert calls == [(m,), (m,)]


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
    """Exact step counts and final bits of reference runs.

    Any change to the integrator's arithmetic, its step-size control or its
    input lookups moves these values; a rewrite that claims the same
    numbers must leave them untouched.  They were recorded with NumPy 2.4
    on x86-64; another BLAS may round the stage sums differently.
    """

    def test_forced_orbit_over_one_period(self, forced_system, r_star):
        field, signal = forced_system
        traj = integrate(field, signal, [r_star, 0.0], (0.0, TWO_PI))
        assert len(traj.times) - 1 == 18
        assert [float(v).hex() for v in traj.final_state] == ["0x1.653f1ba324d2cp+1", "-0x1.5502e40000000p-31"]

    def test_lockstep_batch_under_sixteen_pieces(self):
        k = np.arange(16)
        signal = PiecewiseConstantInput(
            np.linspace(0.0, TWO_PI, 17)[1:-1], np.column_stack([(5 * k % 7 - 3) / 4, (3 * k % 5 - 2) / 2])
        )
        starts = [[1.0, 0.0], [0.0, -2.0], [-0.5, 0.25]]
        traj = integrate(circle_field(), signal, starts, (0.0, TWO_PI))
        assert len(traj.times) - 1 == 55
        assert [[float(v).hex() for v in row] for row in traj.final_state] == [
            ["-0x1.8a9dfc45e3ee0p-8", "-0x1.168c5afae3430p-2"],
            ["-0x1.2ab7c358eb0acp-7", "-0x1.2016834295735p-2"],
            ["-0x1.4ff95ca191344p-7", "-0x1.15e4d7d8b0cf2p-2"],
        ]

    def test_unforced_ges_batch(self):
        # verify_ges's lockstep shape: three starts from the radius-10 disk.
        starts = [[7.0, -6.5], [-3.0, 9.0], [0.5, 2.0]]
        traj = integrate(circle_field(), ConstantInput(np.zeros(2)), starts, (0.0, 20.0))
        assert len(traj.times) - 1 == 212
        assert [[float(v).hex() for v in row] for row in traj.final_state] == [
            ["0x1.7ef04d3d0150ep-25", "0x1.45ab902b80ba0p-26"],
            ["-0x1.9a52edbbafb7bp-25", "0x1.44bcfb5b32c90p-28"],
            ["-0x1.cc8c720481d30p-28", "0x1.696354984f9c0p-28"],
        ]

    def test_divergence_pair_over_one_period(self, forced_system, r_star):
        # The divergence pair in the inertial frame over one forcing period: (r* - 0.1, 0) beside the orbit start.
        field, signal = forced_system
        traj = integrate(field, signal, [[r_star - 0.1, 0.0], [r_star, 0.0]], (0.0, TWO_PI))
        assert len(traj.times) - 1 == 56
        assert [[float(v).hex() for v in row] for row in traj.final_state] == [
            ["0x1.acc3446605ebbp+0", "0x1.c61fc00000000p-38"],
            ["0x1.653f1ba69d86dp+1", "-0x1.f0c0000000000p-45"],
        ]

    def test_lockstep_batch_above_the_norm_cut(self):
        # 32 floats: the error norm takes the NumPy branch.
        theta = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        starts = 3.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        assert starts.size > dynamics._PYTHON_NORM_MAX
        traj = integrate(circle_field(), ConstantInput(np.zeros(2)), starts, (0.0, TWO_PI))
        assert len(traj.times) - 1 == 45
        assert [[float(v).hex() for v in row] for row in traj.final_state] == [
            ["0x1.84c13cf008230p-7", "-0x1.c359b00000000p-41"],
            ["0x1.6729a28736993p-7", "0x1.298a4206f1ea0p-8"],
            ["0x1.12e4246d5413cp-7", "0x1.12e4246cb47ffp-7"],
            ["0x1.298a420892e9bp-8", "0x1.6729a286e03d0p-7"],
            ["0x1.c359b00000000p-41", "0x1.84c13cf008230p-7"],
            ["-0x1.298a4206f1ea0p-8", "0x1.6729a28736993p-7"],
            ["-0x1.12e4246cb47ffp-7", "0x1.12e4246d5413cp-7"],
            ["-0x1.6729a286e03cap-7", "0x1.298a420892e7fp-8"],
            ["-0x1.84c13cf008228p-7", "0x1.c357900000000p-41"],
            ["-0x1.6729a28736994p-7", "-0x1.298a4206f1ea6p-8"],
            ["-0x1.12e4246d5413cp-7", "-0x1.12e4246cb47ffp-7"],
            ["-0x1.298a420892e93p-8", "-0x1.6729a286e03d0p-7"],
            ["-0x1.c357900000000p-41", "-0x1.84c13cf008228p-7"],
            ["0x1.298a4206f1eafp-8", "-0x1.6729a2873699bp-7"],
            ["0x1.12e4246cb47ffp-7", "-0x1.12e4246d5413cp-7"],
            ["0x1.6729a286e03d0p-7", "-0x1.298a420892e93p-8"],
        ]

    def test_non_finite_stage_retry(self):
        # The run of test_nonfinite_interior_stage_is_retried: field call 17
        # is NaN, so the second step is rejected and retried.
        calls = []

        def f(x, u):
            calls.append(None)
            return np.full_like(x, np.nan) if len(calls) == 17 else -x

        traj = integrate(VectorField(f, 1, 1), ConstantInput([0.0]), [1.0], (0.0, 1.0))
        assert len(traj.times) - 1 == 6
        assert [float(v).hex() for v in traj.final_state] == ["0x1.78b5636300afcp-2"]

    def test_many_piece_schedule_keeps_the_five_four_bits(self):
        # 64 pieces over a span of 2 average 5.6 starting steps, so the run
        # takes the 5(4) pair; these are the bits of the 5(4)-only integrator.
        traj = integrate(linear_additive_field(1), schedule_of(64), [[0.3], [-1.2], [2.0]], (0.0, 2.0))
        assert len(traj.times) - 1 == 69
        assert [float(v).hex() for v in traj.final_state.reshape(-1)] == [
            "0x1.93fffbac22739p-4",
            "-0x1.ab8003082be5bp-4",
            "0x1.5097760485367p-2",
        ]

    @pytest.mark.parametrize("case", ["forced", "batch", "schedule", "nan-retry", "many-pieces"])
    def test_error_norm_is_the_same_on_both_sides_of_the_cut(self, case, forced_system, r_star, monkeypatch):
        def run():
            if case == "forced":
                return integrate(*forced_system, [r_star, 0.0], (0.0, TWO_PI))
            if case == "batch":
                starts = [[1.0, 0.0], [0.0, -2.0], [-0.5, 0.25]]
                return integrate(circle_field(), ConstantInput(np.zeros(2)), starts, (0.0, TWO_PI))
            if case == "schedule":
                schedule = PiecewiseSchedule([[-1.0], [2.0], [0.5]], [0.25, 0.5, 0.25], 0.0, 2.0)
                return integrate(linear_additive_field(1), schedule, [0.3], (0.0, 2.0))
            if case == "many-pieces":  # the 5(4) pair; the others take 8(5,3)
                return integrate(linear_additive_field(1), schedule_of(64), [[0.3], [-1.2], [2.0]], (0.0, 2.0))
            # The NaN field of test_non_finite_stage_retry.
            calls = []

            def f(x, u):
                calls.append(None)
                return np.full_like(x, np.nan) if len(calls) == 17 else -x

            return integrate(VectorField(f, 1, 1), ConstantInput([0.0]), [1.0], (0.0, 1.0))

        runs = []
        for cut in (0, 10**6):
            monkeypatch.setattr(dynamics, "_PYTHON_NORM_MAX", cut)
            runs.append(run())
        numpy_run, python_run = runs
        assert python_run.times.tobytes() == numpy_run.times.tobytes()
        assert python_run.states.tobytes() == numpy_run.states.tobytes()

    def test_per_row_inputs_across_schedule_breakpoints(self, monkeypatch):
        runs = []

        def recording(*args):
            runs.append(integrate(*args))
            return runs[-1]

        monkeypatch.setattr(flowspace, "integrate", recording)
        signals = [
            PiecewiseSchedule([[-1.0], [2.0], [0.5]], [0.25, 0.5, 0.25], 0.0, 2.0),
            PiecewiseSchedule([[1.5], [-0.5]], [0.6, 0.4], 0.0, 2.0),
        ]
        images = flow_from_field(linear_additive_field(1)).apply_each(signals, 0.0, 2.0, [[0.3], [-1.2], [2.0]])
        assert len(runs) == 1 and {0.5, 1.2, 1.5} <= set(runs[0].times.tolist())
        assert len(runs[0].times) - 1 == 10
        assert [float(v).hex() for v in images.reshape(-1)] == [
            "0x1.d52ab26f399e5p-1",
            "0x1.6d3ab298b159cp-1",
            "0x1.257b36fdfb17cp+0",
            "0x1.e3d9f84c059c5p-3",
            "0x1.1067e3c792290p-5",
            "0x1.dd84733f7bf0cp-2",
        ]
