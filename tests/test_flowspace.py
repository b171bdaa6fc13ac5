import math

import numpy as np
import pytest

from contraction_lab import flowspace
from contraction_lab.contraction import (
    RiemannianMetric,
    check_contraction_region,
    check_uniform_contraction,
    linear_additive_field,
)
from contraction_lab.counterexample import circle_field
from contraction_lab.dynamics import (
    ConstantInput,
    InputSignal,
    PeriodicInput,
    PiecewiseConstantInput,
    VectorField,
    concat,
    integrate,
)
from contraction_lab.errors import ApproximationNotConvergingError, NonFiniteError
from contraction_lab.flowspace import (
    FlowMap,
    PiecewiseSchedule,
    check_limit_contraction,
    check_piecewise_contraction,
    flow_from_field,
    schedule_contraction_factor,
)

TWO_PI = 2 * math.pi


def linear_flow():
    return flow_from_field(linear_additive_field(1))


# A flow whose images are all NaN, as a diverging integration might return them.
NAN_FLOW = FlowMap(lambda signal, t1, t2, points: np.full(points.shape, math.nan))


class FnInput(InputSignal):
    """u(t) = fn(t), a 1-D signal with no periodicity to check."""

    dim = 1

    def __init__(self, fn):
        self.fn = fn

    def eval(self, t):
        return np.atleast_1d(np.asarray(self.fn(t), dtype=float))


class TestFlowFromField:
    def test_linear_decay(self):
        out = linear_flow().apply(ConstantInput([0.0]), 0.0, 1.0, [1.0])
        assert out[0] == pytest.approx(math.exp(-1), abs=1e-8)

    def test_composition_law(self, rng):
        field = circle_field()
        flow = flow_from_field(field)
        u = PeriodicInput(TWO_PI, lambda t: [math.sin(t), 0.3])
        v = PeriodicInput(TWO_PI, lambda t: [0.1, math.cos(t)])
        for _ in range(5):
            t1, t2, t3 = np.sort(rng.uniform(0, 3, size=3) + np.array([0, 0.2, 0.4]))
            x0 = rng.uniform(-2, 2, size=2)
            via = flow.apply(v, t2, t3, flow.apply(u, t1, t2, x0))
            direct = flow.apply(concat(u, v, t2), t1, t3, x0)
            assert np.linalg.norm(via - direct) <= 1e-7
            # same signal throughout: restarted two-leg run against a single
            # un-segmented integration (genuinely different step sequences)
            via_same = flow.apply(u, t2, t3, flow.apply(u, t1, t2, x0))
            whole = flow.apply(u, t1, t3, x0)
            assert np.linalg.norm(via_same - whole) <= 1e-7

    def test_time_shift_covariance(self, rng):
        flow = flow_from_field(circle_field())
        u = PeriodicInput(TWO_PI, lambda t: [math.sin(t), math.cos(2 * t)])
        for _ in range(5):
            shift = rng.uniform(-4, 4)
            t1, t2 = 0.3, 2.9
            x0 = rng.uniform(-2, 2, size=2)
            base = flow.apply(u, t1, t2, x0)
            moved = flow.apply(u.shifted(shift), t1 - shift, t2 - shift, x0)
            assert np.linalg.norm(base - moved) <= 1e-7

    def test_three_way_concatenation_associativity(self):
        flow = flow_from_field(linear_flow_field())
        u, v, w = ConstantInput([0.5]), ConstantInput([-0.4]), ConstantInput([0.2])
        left = flow.apply(concat(concat(u, v, 1.0), w, 2.0), 0.0, 3.0, [1.0])
        right = flow.apply(concat(u, concat(v, w, 2.0), 1.0), 0.0, 3.0, [1.0])
        assert np.linalg.norm(left - right) <= 1e-9

    def test_rejects_backward_span(self):
        with pytest.raises(ValueError):
            linear_flow().apply(ConstantInput([0.0]), 1.0, 0.0, [1.0])


def linear_flow_field():
    return linear_additive_field(1)


class TestSchedule:
    def test_factor_is_span_exponential(self):
        sched = PiecewiseSchedule([[0.2], [0.9], [-0.3]], [0.5, 0.25, 0.25], 0.0, 1.0)
        assert schedule_contraction_factor(-1.0, sched) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_single_piece(self):
        sched = PiecewiseSchedule([[0.0]], [1.0], 0.0, 2.5)
        assert schedule_contraction_factor(-0.8, sched) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_two_pieces_exponent_adds(self):
        sched = PiecewiseSchedule([[0.1], [0.2]], [0.3, 0.7], 0.0, 3.0)
        assert schedule_contraction_factor(-2.0, sched) == pytest.approx(math.exp(-6.0), rel=1e-14)

    def test_refinement_invariance(self):
        base = PiecewiseSchedule([[0.4], [0.8]], [0.5, 0.5], 0.0, 2.0)
        split = PiecewiseSchedule([[0.4], [0.4], [0.8]], [0.25, 0.25, 0.5], 0.0, 2.0)
        lam = -1.3
        assert schedule_contraction_factor(lam, base) == pytest.approx(
            schedule_contraction_factor(lam, split), rel=1e-14
        )

    @pytest.mark.parametrize("lam, pieces, span", [(-5.0, 100, 10.0), (2.0, 256, 10.0), (-1.0, 1000, 2.0)])
    def test_many_equal_pieces_pass_their_rounding_bound(self, lam, pieces, span):
        # Each product lies 1e-14 to 1.9e-14 from exp(lam * span), relative: past 1e-14, within the rounding bound.
        sched = PiecewiseSchedule([[0.0]] * pieces, [1.0 / pieces] * pieces, 0.0, span)
        assert schedule_contraction_factor(lam, sched) == pytest.approx(math.exp(lam * span), rel=1e-13)

    def test_product_off_by_1e_10_raises(self):
        sched = PiecewiseSchedule([[0.0], [0.0]], [0.5, 0.5], 0.0, 1.0)
        sched.fractions = np.array([0.5, 0.5 + 1e-10])  # the exponents now add to -(1 + 1e-10)
        with pytest.raises(AssertionError, match="deviates"):
            schedule_contraction_factor(-1.0, sched)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            PiecewiseSchedule([[0.0], [1.0]], [0.5, 0.6], 0.0, 1.0)
        with pytest.raises(ValueError):
            PiecewiseSchedule([[0.0], [1.0]], [1.0, -0.0001], 0.0, 1.0)
        with pytest.raises(ValueError):
            PiecewiseSchedule([[0.0]], [1.0], 1.0, 1.0)
        # An infinite span would make every contraction factor 0.0.
        with pytest.raises(ValueError, match="finite"):
            PiecewiseSchedule([[0.1]], [1.0], 0.0, math.inf)

    def test_step_signal_piece_layout(self):
        sched = PiecewiseSchedule([[1.0], [2.0], [3.0]], [0.25, 0.25, 0.5], 0.0, 4.0)
        assert sched.eval(0.5)[0] == 1.0
        assert sched.eval(1.0)[0] == 2.0  # right-continuous at the cut
        assert sched.eval(3.9)[0] == 3.0

    def test_schedule_is_its_own_signal(self, rng):
        for k in (1, 2, 5, 17):
            fracs = rng.uniform(0.2, 1.0, size=k)
            fracs /= fracs.sum()
            t1 = float(rng.uniform(-1.0, 1.0))
            t2 = t1 + float(rng.uniform(0.5, 3.0))
            sched = PiecewiseSchedule(rng.uniform(-1, 1, size=k), fracs, t1, t2)
            assert isinstance(sched, InputSignal)
            assert sched.values.shape == (k, 1) and sched.piece_count() == k
            # the cuts of the former schedule-to-signal conversion, bit for bit
            normalized = fracs / float(np.sum(fracs))
            assert np.array_equal(sched.breakpoints, t1 + np.cumsum(normalized)[:-1] * (t2 - t1))

    def test_non_finite_value_rejected_at_construction(self):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseSchedule([[math.nan], [0.5]], [0.5, 0.5], 0.0, 1.0)


class TestPiecewiseContraction:
    def test_linear_flow_contracts_exactly(self, rng):
        flow = linear_flow()
        for _ in range(10):
            k = int(rng.integers(1, 6))
            fracs = rng.uniform(0.2, 1.0, size=k)
            fracs /= fracs.sum()
            sched = PiecewiseSchedule(rng.uniform(-1, 1, size=(k, 1)), fracs, 0.0, float(rng.uniform(0.5, 3.0)))
            pairs = [(rng.uniform(-4, 4, size=1), rng.uniform(-4, 4, size=1)) for _ in range(5)]
            pairs = [(a, b) for a, b in pairs if abs(a[0] - b[0]) > 1e-6]
            cert = check_piecewise_contraction(flow, (-1.0, 1.0), -1.0, sched, pairs)
            assert cert.holds
            # input differences cancel, so the ratio is exactly the factor
            assert cert.margin == pytest.approx(math.exp(-sched.span), rel=1e-7)

    def test_cubic_flow_with_groenwall_rate(self):
        field = VectorField(
            lambda x, u: -x**3 - x + u, 1, 1, jacobian=lambda x, u: np.array([[-3 * x[0] ** 2 - 1.0]])
        )
        flow = flow_from_field(field)
        sched = PiecewiseSchedule([[0.7], [-0.7]], [0.5, 0.5], 0.0, 2.0)
        pairs = [([1.5], [-1.0]), ([0.2], [0.4])]
        cert = check_piecewise_contraction(flow, (-1.0, 1.0), -1.0, sched, pairs)
        assert cert.holds
        assert cert.margin <= math.exp(-2.0) * (1 + 1e-6)

    def test_unforced_circle_field_rate_half_from_origin(self):
        flow = flow_from_field(circle_field())
        sched = PiecewiseSchedule([[0.0, 0.0]], [1.0], 0.0, 4.0)
        pairs = [([2.0, 1.0], [0.0, 0.0]), ([-3.0, 0.5], [0.0, 0.0])]
        cert = check_piecewise_contraction(flow, [(-1.0, 1.0), (-1.0, 1.0)], -0.5, sched, pairs)
        assert cert.holds

    def test_schedule_outside_box_rejected(self):
        flow = linear_flow()
        sched = PiecewiseSchedule([[2.0]], [1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            check_piecewise_contraction(flow, (-1.0, 1.0), -1.0, sched, [([0.0], [1.0])])

    def test_non_finite_image_raises(self):
        sched = PiecewiseSchedule([[0.3], [-0.3]], [0.5, 0.5], 0.0, 1.0)
        with pytest.raises(NonFiniteError):
            check_piecewise_contraction(NAN_FLOW, (-1.0, 1.0), -1.0, sched, [([0.0], [1.0])])

    def test_certified_rates_compose_across_concatenation(self):
        flow = linear_flow()
        s1 = PiecewiseSchedule([[0.3], [-0.3]], [0.5, 0.5], 0.0, 1.0)
        s2 = PiecewiseSchedule([[0.8]], [1.0], 1.0, 3.0)
        x, y = np.array([2.0]), np.array([-1.0])
        sig = concat(s1, s2, 1.0)
        x2 = flow.apply(sig, 0.0, 3.0, x)
        y2 = flow.apply(sig, 0.0, 3.0, y)
        factor = schedule_contraction_factor(-1.0, s1) * schedule_contraction_factor(-1.0, s2)
        assert factor == pytest.approx(math.exp(-3.0), rel=1e-13)
        assert np.linalg.norm(x2 - y2) <= factor * np.linalg.norm(x - y) * (1 + 1e-6)


class TestLimitContraction:
    def test_clipped_sine_through_eight_levels(self):
        flow = linear_flow()
        target = PeriodicInput(TWO_PI, lambda t: [float(np.clip(math.sin(t), -1.0, 1.0))])
        cert = check_limit_contraction(
            flow, (-1.0, 1.0), -1.0, target, 8, [([-2.0], [2.0]), ([0.5], [1.5])], (0.0, TWO_PI)
        )
        assert cert.holds
        gaps = cert.grid_spec["cauchy_gaps"]
        assert len(gaps) == 8
        for a, b in zip(gaps[1:-1], gaps[2:]):
            assert b <= 0.625 * a
        assert cert.margin <= math.exp(-TWO_PI) * (1 + 1e-4)

    def test_outputs_converge_to_target_flow(self):
        # variation-of-constants oracle for x' = -x + sin t
        flow = linear_flow()
        target = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
        x0 = 0.7
        t2 = TWO_PI
        exact = math.exp(-t2) * x0 + (math.sin(t2) - math.cos(t2)) / 2 + math.exp(-t2) / 2
        out = flow.apply(target, 0.0, t2, [x0])
        assert out[0] == pytest.approx(exact, abs=1e-9)
        cert = check_limit_contraction(flow, (-1.0, 1.0), -1.0, target, 6, [([x0], [-0.3])], (0.0, t2))
        assert cert.grid_spec["tail_gap"] <= 2 * cert.grid_spec["cauchy_gaps"][-1] + 1e-8

    def test_constant_target_is_exact_at_level_zero(self):
        flow = linear_flow()
        target = ConstantInput([0.5])
        cert = check_limit_contraction(flow, (-1.0, 1.0), -1.0, target, 2, [([1.0], [-1.0])], (0.0, 1.5))
        assert cert.holds
        assert max(cert.grid_spec["cauchy_gaps"]) <= 1e-9

    def test_non_finite_image_raises(self):
        target = ConstantInput([0.5])
        with pytest.raises(NonFiniteError):
            check_limit_contraction(NAN_FLOW, (-1.0, 1.0), -1.0, target, 2, [([1.0], [-1.0])], (0.0, 1.5))

    def test_signal_outside_box_rejected_before_integration(self):
        flow = linear_flow()
        target = PeriodicInput(TWO_PI, lambda t: [2.0 * math.sin(t)])
        with pytest.raises(ValueError):
            check_limit_contraction(flow, (-1.0, 1.0), -1.0, target, 3, [([0.0], [1.0])], (0.0, TWO_PI))

    def test_nan_target_value_rejected_before_integration(self):
        def unreachable(signal, t1, t2, points):
            raise AssertionError("no flow may run")

        target = FnInput(lambda t: [math.nan if t > 1.0 else 0.0])
        with pytest.raises(ValueError, match="leaves the input box"):
            check_limit_contraction(FlowMap(unreachable), (-1.0, 1.0), -1.0, target, 3, [([0.0], [1.0])], (0.0, 2.0))

    def test_nonconverging_flow_detected(self):
        # A fake flow whose output depends on the piece count like
        # 1/sqrt(pieces) shrinks by 0.707 per level, slower than the
        # required halving.
        def weird_apply(signal, t1, t2, point):
            pieces = len(getattr(signal, "breakpoints", [])) + 1
            return np.atleast_1d(point) + 1.0 / math.sqrt(pieces)

        from contraction_lab.flowspace import FlowMap

        flow = FlowMap(weird_apply)
        target = ConstantInput([0.0])
        with pytest.raises(ApproximationNotConvergingError):
            check_limit_contraction(flow, (-1.0, 1.0), -1.0, target, 4, [([0.0], [1.0])], (0.0, 1.0))


def linear_flow_exact(signal, t1, t2, x0):
    """Exact flow of x' = -x + u for a step input or u = a sin t (variation of constants)."""
    if isinstance(signal, PiecewiseConstantInput):
        x, cuts = x0, [t1, *signal.breakpoints_in(t1, t2), t2]
        for a, b in zip(cuts[:-1], cuts[1:]):
            c = signal.eval(a)
            x = c + math.exp(-(b - a)) * (x - c)
        return x
    amplitude = signal.eval(0.5 * math.pi)

    def particular(t):
        return 0.5 * amplitude * (math.sin(t) - math.cos(t))

    return particular(t2) + math.exp(-(t2 - t1)) * (x0 - particular(t1))


def recording_flow():
    """The linear flow, keeping (signal, t1, t2, points, images) of every apply."""
    flow, calls = linear_flow(), []

    def apply_fn(signal, t1, t2, points):
        images = flow.apply(signal, t1, t2, points)
        calls.append((signal, t1, t2, np.asarray(points, dtype=float), images))
        return images

    return FlowMap(apply_fn), calls


def assert_images_exact(calls):
    for signal, t1, t2, points, images in calls:
        assert images.shape == points.shape
        for x0, image in zip(points, images):
            assert np.max(np.abs(image - linear_flow_exact(signal, t1, t2, x0))) <= 1e-8


class TestLockstepFlows:
    PAIRS = [([-2.0], [2.0]), ([0.5], [1.5]), ([3.0], [3.0]), ([-0.7], [0.1])]

    def test_apply_keeps_point_and_batch_shapes(self):
        signal = PeriodicInput(TWO_PI, lambda t: [0.8 * math.sin(t)])
        flow = linear_flow()
        batch = flow.apply(signal, 0.0, 2.0, [[-1.0], [0.5], [2.0]])
        assert batch.shape == (3, 1)
        for x0, row in zip((-1.0, 0.5, 2.0), batch):
            single = flow.apply(signal, 0.0, 2.0, [x0])
            assert single.shape == (1,)
            assert abs(row[0] - linear_flow_exact(signal, 0.0, 2.0, x0)) <= 1e-8
            assert abs(row[0] - single[0]) <= 1e-8

    def test_single_point_flow_rejected_on_a_batch(self):
        # An apply_fn written for one point maps a (6, 2) batch to (2, 2):
        # a shape mismatch, not a certificate over the wrong rows.
        flow = FlowMap(lambda signal, t1, t2, point: np.array([2.0 * point[0], point[1]]))
        sched = PiecewiseSchedule([0.0], [1.0], 0.0, 1.0)
        pairs = [([0.0, 0.0], [0.0, 1.0]), ([0.0, 0.0], [1.0, 0.0]), ([5.0, 5.0], [6.0, 5.0])]
        with pytest.raises(ValueError, match="shape"):
            check_piecewise_contraction(flow, (-1.0, 1.0), math.log(2.0), sched, pairs)

    def test_piecewise_flows_every_distinct_pair_in_one_batch(self):
        flow, calls = recording_flow()
        sched = PiecewiseSchedule([[0.3], [-0.9], [0.6]], [0.2, 0.5, 0.3], 0.5, 2.5)
        cert = check_piecewise_contraction(flow, (-1.0, 1.0), -1.0, sched, self.PAIRS)
        assert len(calls) == 1
        # the zero-distance pair ([3], [3]) is not flowed
        assert calls[0][3].ravel().tolist() == [-2.0, 2.0, 0.5, 1.5, -0.7, 0.1]
        assert_images_exact(calls)
        assert cert.holds
        assert cert.margin == pytest.approx(math.exp(-2.0), rel=1e-8)

    def test_limit_flows_each_level_and_the_target_in_one_batch(self):
        flow, calls = recording_flow()
        target = PeriodicInput(TWO_PI, lambda t: [0.8 * math.sin(t)])
        cert = check_limit_contraction(flow, (-1.0, 1.0), -1.0, target, 5, self.PAIRS, (0.0, TWO_PI))
        # levels 0..5, then the target signal itself
        assert len(calls) == 7
        assert [len(c[0].breakpoints_in(0.0, TWO_PI)) for c in calls[:-1]] == [2**level - 1 for level in range(6)]
        assert calls[-1][0] is target
        for call in calls:
            assert call[3].ravel().tolist() == [-2.0, 2.0, 0.5, 1.5, 3.0, 3.0, -0.7, 0.1]
        assert_images_exact(calls)
        assert cert.holds
        assert cert.margin == pytest.approx(math.exp(-TWO_PI), rel=1e-7)


class TestLimitLevelsInOneIntegration:
    PAIRS = [([-2.0], [2.0]), ([0.5], [1.5]), ([3.0], [3.0]), ([-0.7], [0.1])]

    @staticmethod
    def counted_integrate(monkeypatch):
        inputs = []

        def counting(field, signal, x0, t_span, config=None):
            inputs.append(signal)
            return integrate(field, signal, x0, t_span, config)

        monkeypatch.setattr(flowspace, "integrate", counting)
        return inputs

    def test_declaring_field_locksteps_the_levels_and_integrates_the_target_alone(self, monkeypatch):
        flow = linear_flow()
        target = PeriodicInput(TWO_PI, lambda t: [0.8 * math.sin(t)])
        # the per-level loop of a generic FlowMap over the same flow
        looped = check_limit_contraction(FlowMap(flow.apply), (-1.0, 1.0), -1.0, target, 6, self.PAIRS, (0.0, TWO_PI))
        runs = self.counted_integrate(monkeypatch)
        cert = check_limit_contraction(flow, (-1.0, 1.0), -1.0, target, 6, self.PAIRS, (0.0, TWO_PI))
        assert len(runs) == 2 and runs[1] is target
        # the finest level's breakpoints are every level's; 7 levels of 4 pairs of points
        assert len(runs[0].breakpoints_in(0.0, TWO_PI)) == 2**6 - 1
        assert runs[0].values.shape == (2**6, 7 * 8, 1)
        assert cert.holds and looped.holds
        assert cert.margin == pytest.approx(looped.margin, abs=1e-9)
        assert cert.grid_spec["tail_gap"] == pytest.approx(looped.grid_spec["tail_gap"], abs=1e-9)
        assert np.allclose(cert.grid_spec["cauchy_gaps"], looped.grid_spec["cauchy_gaps"], rtol=0, atol=1e-9)

    def test_flow_limit_default_cauchy_gaps(self):
        # The check `run flow-limit` makes: the levels' lockstep run is pinned
        # to the last bit, the target's own run within tolerance of e^{-2 pi}.
        target = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
        pairs = [([-2.0], [2.0]), ([0.5], [1.5])]
        cert = check_limit_contraction(linear_flow(), (-1.0, 1.0), -1.0, target, 8, pairs, (0.0, TWO_PI))
        assert cert.holds
        assert [gap.hex() for gap in cert.grid_spec["cauchy_gaps"]] == [
            "0x1.d4b4800436d8fp-1",
            "0x1.128fa2d17a18ep-2",
            "0x1.c2798ec1d0c88p-4",
            "0x1.d58be0845e940p-6",
            "0x1.d82cb66ba8e40p-8",
            "0x1.d8b1edf01ce00p-10",
            "0x1.d8d10b0f8a000p-12",
            "0x1.d8d8af49f8000p-14",
        ]
        assert cert.margin == pytest.approx(math.exp(-TWO_PI), rel=1e-9)

    def test_apply_each_matches_one_apply_per_signal(self):
        flow = flow_from_field(circle_field())
        signals = [
            ConstantInput([0.3, -0.2]),
            PiecewiseConstantInput([0.4, 1.1], [[1.0, 0.0], [-0.5, 0.5], [0.0, 2.0]]),
            PeriodicInput(TWO_PI, lambda t: [math.cos(t), math.sin(t)]),
        ]
        points = np.array([[1.0, 0.5], [-0.3, 2.0]])
        each = flow.apply_each(signals, 0.0, 1.5, points)
        assert each.shape == (3, 2, 2)
        for images, signal in zip(each, signals):
            assert np.max(np.abs(images - flow.apply(signal, 0.0, 1.5, points))) <= 1e-9
        assert flow.apply_each(signals, 0.0, 1.5, points[0]).shape == (3, 2)

    def test_apply_each_locksteps_only_the_step_signals(self, monkeypatch):
        # One checked FlowMap.apply, so one integration, for all the step
        # signals and one for each other signal; the images keep the signals' order.
        applied, apply = [], FlowMap.apply

        def counting(flow, signal, t1, t2, points):
            applied.append(signal)
            return apply(flow, signal, t1, t2, points)

        sine = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
        cosine = PeriodicInput(TWO_PI, lambda t: [math.cos(t)])
        signals = [
            sine,
            ConstantInput([0.3]),
            PiecewiseConstantInput([0.4], [[1.0], [-0.5]]),
            cosine,
            PiecewiseSchedule([0.2, -0.9], [0.5, 0.5], 0.0, 1.0),
        ]
        points = np.array([[0.5], [-1.0]])
        alone = [linear_flow().apply(signal, 0.0, 1.0, points) for signal in signals]
        integrated = self.counted_integrate(monkeypatch)
        monkeypatch.setattr(FlowMap, "apply", counting)
        images = linear_flow().apply_each(signals, 0.0, 1.0, points)
        assert integrated == applied and applied[1:] == [sine, cosine]
        assert applied[0].breakpoints.tolist() == [0.4, 0.5] and applied[0].values.shape == (3, 3 * 2, 1)
        assert images.shape == (5, 2, 1)
        for j in (0, 3):
            assert images[j].tobytes() == alone[j].tobytes()
        assert np.max(np.abs(images - alone)) <= 1e-9

    def test_apply_each_locksteps_a_per_row_step_signal(self, monkeypatch):
        # A per-row step signal and a shared constant share one integration.
        signals = [PiecewiseConstantInput([0.5], [[[1.0], [2.0]], [[0.0], [0.5]]]), ConstantInput([0.2])]
        points = np.array([[0.1], [0.2]])
        alone = [linear_flow().apply(signal, 0.0, 1.0, points) for signal in signals]
        runs = self.counted_integrate(monkeypatch)
        images = linear_flow().apply_each(signals, 0.0, 1.0, points)
        assert len(runs) == 1 and runs[0].values.shape == (2, 2 * 2, 1)
        assert images.shape == (2, 2, 1)
        assert np.max(np.abs(images - alone)) <= 1e-9

    def test_apply_each_refuses_a_per_row_signal_of_another_row_count(self):
        # The field's own message, as for an apply of that signal alone.
        wrong = PiecewiseConstantInput([0.5], [[[1.0], [2.0], [3.0]], [[0.0], [0.5], [1.0]]])
        points = np.array([[0.1], [0.2]])
        with pytest.raises(ValueError) as alone:
            linear_flow().apply(wrong, 0.0, 1.0, points)
        assert "input of shape (3, 1) for states of shape (2, 1)" in str(alone.value)
        for signals in ([wrong], [ConstantInput([0.2]), wrong], [wrong, PeriodicInput(TWO_PI, lambda t: [0.0])]):
            with pytest.raises(ValueError) as each:
                linear_flow().apply_each(signals, 0.0, 1.0, points)
            assert str(each.value) == str(alone.value)

    def test_undeclared_field_keeps_one_run_per_level(self, monkeypatch):
        shapes = []

        def f(x, u):
            shapes.append(np.shape(u))
            return -x + u

        field = VectorField(f, 1, 1, jacobian=lambda x, u: -np.eye(1))
        target = PeriodicInput(TWO_PI, lambda t: [0.8 * math.sin(t)])
        runs = self.counted_integrate(monkeypatch)
        cert = check_limit_contraction(flow_from_field(field), (-1.0, 1.0), -1.0, target, 4, self.PAIRS, (0.0, TWO_PI))
        assert len(runs) == 4 + 2
        assert set(shapes) == {(1,)}
        # the bits of the per-level loop, before the levels shared one run
        assert cert.margin.hex() == "0x1.e989f5d8a0600p-10"
        assert [gap.hex() for gap in cert.grid_spec["cauchy_gaps"]] == [
            "0x1.76f6ccd014affp-1",
            "0x1.b74c37b576448p-3",
            "0x1.68613f009e240p-4",
            "0x1.77a31a0454310p-6",
        ]
        assert cert.grid_spec["tail_gap"].hex() == "0x1.f7cce52cdfe00p-8"
        assert cert.witness == {"x": [0.5], "y": [1.5]}

    def test_level_values_are_the_target_at_piece_midpoints(self, rng):
        # The target is read once on its probe grid; each level's value must
        # still be the target at t1 + (k + 1/2) h to the last bit.
        signals = []

        def identity(signal, t1, t2, points):
            signals.append(signal)
            return points

        clock = FnInput(lambda t: [t])
        for _ in range(100):
            t1 = float(rng.uniform(-50.0, 50.0))
            t2 = t1 + float(rng.choice([1e-3, 1.0, 7.0, 300.0]) * rng.uniform(0.1, 1.0))
            levels = int(rng.integers(1, 7))
            signals.clear()
            box = (t1 - 1.0, t2 + 1.0)
            check_limit_contraction(FlowMap(identity), box, -1.0, clock, levels, [([0.0], [1.0])], (t1, t2))
            assert len(signals) == levels + 2
            for level, signal in enumerate(signals[:-1]):
                pieces = 2**level
                mids = t1 + (np.arange(pieces) + 0.5) * ((t2 - t1) / pieces)
                assert np.array_equal(signal.values[:, 0], mids)


class TestStepTable:
    """The lockstep input of the step signals: a step signal whose value on
    each piece is the per-member ``np.repeat``, bit for bit."""

    ROWS = 3

    @staticmethod
    def members(dim):
        rng = np.random.default_rng(dim)
        return [
            ConstantInput(rng.uniform(-1.0, 1.0, dim)),
            PiecewiseConstantInput([0.4, 1.1, 2.0], rng.uniform(-1.0, 1.0, (4, dim))),
            PiecewiseSchedule(rng.uniform(-1.0, 1.0, (3, dim)), [0.2, 0.5, 0.3], 0.0, 2.5),
            PiecewiseSchedule(rng.uniform(-1.0, 1.0, (2, dim)), [0.5, 0.5], 0.0, 2.5),
        ]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lookups_equal_the_per_member_repeat(self, dim, rng):
        members = self.members(dim)
        table = flowspace._step_table(members, self.ROWS)
        cuts = table.breakpoints_in(-1.0, 4.0)
        assert cuts == [0.4, 0.5, 1.1, 1.25, 1.75, 2.0]
        for t in [*cuts, *rng.uniform(-1.0, 4.0, size=200)]:
            for name in ("eval", "eval_left"):
                got = getattr(table, name)(t)
                want = np.repeat([getattr(member, name)(t) for member in members], self.ROWS, axis=0)
                assert got.shape == (len(members) * self.ROWS, dim)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_per_row_members_fill_their_own_block(self, dim, rng):
        members = [
            *self.members(dim)[:2],
            PiecewiseConstantInput([0.7, 2.0], rng.uniform(-1.0, 1.0, (3, self.ROWS, dim))),
            ConstantInput(rng.uniform(-1.0, 1.0, (self.ROWS, dim))),
        ]
        table = flowspace._step_table(members, self.ROWS)
        cuts = table.breakpoints_in(-1.0, 4.0)
        assert cuts == [0.4, 0.7, 1.1, 2.0]
        for t in [*cuts, *rng.uniform(-1.0, 4.0, size=50)]:
            for name in ("eval", "eval_left"):
                got = getattr(table, name)(t)
                want = np.concatenate([np.broadcast_to(getattr(m, name)(t), (self.ROWS, dim)) for m in members])
                assert got.shape == (len(members) * self.ROWS, dim)
                assert got.tobytes() == want.tobytes()

    def test_lookups_are_read_only_views(self):
        table = flowspace._step_table(self.members(1), self.ROWS)
        block = table.eval(0.7)
        assert np.shares_memory(block, table.values)
        with pytest.raises(ValueError, match="read-only"):
            block[:] = 99.0


class TestRateConventionBridge:
    def test_matrix_rate_beta_matches_distance_rate_half_beta(self):
        # Matrix-level margin beta = 2 for x' = -x + u with the identity
        # metric corresponds to distance-level lam = -1: the linear flow
        # realizes both exactly.
        from contraction_lab.contraction import RiemannianMetric, check_uniform_contraction

        field = linear_additive_field(1)
        cert = check_uniform_contraction(
            field, RiemannianMetric.constant([[1.0]]), (-1.0, 1.0), 3, (-3.0, 3.0), 11, 2.0
        )
        assert cert.holds
        flow = flow_from_field(field)
        sched = PiecewiseSchedule([[0.4]], [1.0], 0.0, 2.0)
        out = check_piecewise_contraction(flow, (-1.0, 1.0), -1.0, sched, [([1.0], [-1.0])])
        assert out.holds
        assert out.margin == pytest.approx(math.exp(-2.0), rel=1e-8)


# Tie-breaking: when several grid points, inputs or pairs share the largest
# value exactly, the certificate's witness is the first of them in grid
# order (first axis slowest) or in the order the pairs were given.

UNIT_METRIC = RiemannianMetric.constant([[1.0]])


def cubic_drift_field(dim):
    # x' = -x + x^3/3 per coordinate; Jacobian diag(x_i^2 - 1) is even in each x_i.
    def jacobian(x, u):
        jac = np.zeros(x.shape + (dim,))
        jac[..., range(dim), range(dim)] = x * x - 1.0
        return jac

    return VectorField(lambda x, u: -x + x**3 / 3.0, dim, dim, jacobian=jacobian)


def region_tie_1d():
    # Values 2(x^2 - 1) at x = -1, 0, 1: the two ends tie at 0.
    cert = check_contraction_region(cubic_drift_field(1), UNIT_METRIC, (-1.0, 1.0), 3, 0.0, [0.0])
    return cert, 0.0, {"x": [-1.0], "c": [0.0]}


def region_tie_2d():
    # (0, 1), (1, 0) and (1, 1) tie at 0; (0, 1) comes first only when x1 is the slowest axis.
    metric = RiemannianMetric.constant(np.eye(2))
    cert = check_contraction_region(cubic_drift_field(2), metric, [(0.0, 1.0), (0.0, 1.0)], 2, 0.0, [0.0, 0.0])
    return cert, 0.0, {"x": [0.0, 1.0], "c": [0.0, 0.0]}


def uniform_tie():
    # x' = (u^2 - 1) x: inputs -1 and 1 tie at 2(u^2 - 1) + beta = 1 at every state.
    field = VectorField(lambda x, u: (u * u - 1.0) * x, 1, 1, jacobian=lambda x, u: np.array([[u[0] * u[0] - 1.0]]))
    cert = check_uniform_contraction(field, UNIT_METRIC, (-1.0, 1.0), 3, (-1.0, 1.0), 3, 1.0)
    return cert, 1.0, {"x": [-1.0], "c": [-1.0]}


def piecewise_tie():
    # Doubling the first coordinate: the last two pairs tie at ratio 2; the
    # zero-distance pair in front is skipped and never flowed.
    applied = []

    def stretch(signal, t1, t2, points):
        applied.extend(points)
        return np.asarray(points) * [2.0, 1.0]

    pairs = [([1.0, 1.0], [1.0, 1.0]), ([0.0, 0.0], [0.0, 1.0]), ([0.0, 0.0], [1.0, 0.0]), ([5.0, 5.0], [6.0, 5.0])]
    schedule = PiecewiseSchedule([0.0], [1.0], 0.0, 1.0)
    cert = check_piecewise_contraction(FlowMap(stretch), (-1.0, 1.0), math.log(2.0), schedule, pairs)
    assert len(applied) == 6
    return cert, 2.0, {"x": [0.0, 0.0], "y": [1.0, 0.0]}


@pytest.mark.parametrize("case", [region_tie_1d, region_tie_2d, uniform_tie, piecewise_tie])
def test_tied_maximum_reports_first_witness(case):
    cert, margin, witness = case()
    assert cert.margin == margin
    assert cert.witness == witness
