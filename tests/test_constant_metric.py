import json
import math

import numpy as np
import pytest

from contraction_lab.constant_metric import (
    InputSequenceFamily,
    check_constant_metric_conditions,
    example_3d_system,
    example_additive_3d,
    hull_contains_ball,
    jacobian_field_ratio,
    polytope_inradius,
    simplex_directions,
)
from contraction_lab.contraction import RiemannianMetric, check_contraction_region
from contraction_lab.dynamics import VectorField
from contraction_lab.errors import NonFiniteError, ZeroFieldError

EXAMPLE1_DIRECTIONS = np.array(
    [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0 / math.sqrt(3)] * 3]
)


class TestHullContainsBall:
    def test_square_contains_half_ball(self):
        pts = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        assert hull_contains_ball(pts, 0.5)

    def test_square_excludes_beyond_inradius(self):
        pts = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        assert not hull_contains_ball(pts, 1.0 / math.sqrt(2) + 1e-3)

    def test_degenerate_segment(self):
        assert not hull_contains_ball([[1, 0], [0, 1]], 0.01)

    def test_simplex_at_half_inradius(self):
        dirs = simplex_directions(3)
        rho = polytope_inradius(dirs) / 2
        assert hull_contains_ball(dirs, rho)

    def test_monotone_in_rho(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(6, 2))
            rho = rng.uniform(0.05, 1.0)
            if hull_contains_ball(pts, rho):
                assert hull_contains_ball(pts, rho / 2)

    def test_scaling_equivalence(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(5, 3)) + rng.normal(size=3)
            scale = rng.uniform(0.5, 4.0)
            rho = rng.uniform(0.05, 0.5)
            assert hull_contains_ball(pts, rho) == hull_contains_ball(scale * pts, scale * rho)

    def test_stacked_sets_match_per_set_calls(self, rng):
        for n in (1, 2, 3):
            sets = rng.normal(size=(3, 4, 8, n)) * rng.uniform(0.05, 2.0, size=(3, 4, 1, 1))
            stacked = hull_contains_ball(sets, 0.3)
            assert stacked.shape == (3, 4)
            assert stacked.tolist() == [[hull_contains_ball(pts, 0.3) for pts in row] for row in sets]
            assert any(stacked.flat) and not all(stacked.flat)
        assert type(hull_contains_ball(sets[0, 0], 0.3)) is bool

    def test_validations(self):
        with pytest.raises(ValueError):
            hull_contains_ball([[1, 0]], -1.0)
        with pytest.raises(ValueError):
            hull_contains_ball([[1, 0]], math.nan)
        with pytest.raises(ValueError):
            hull_contains_ball(np.ones((3, 4)), 0.5)  # dimension > 3


class TestInradiusOracle:
    def test_regular_simplex_third(self):
        assert polytope_inradius(simplex_directions(3)) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_example1_closed_form(self):
        got = polytope_inradius(EXAMPLE1_DIRECTIONS)
        assert got == pytest.approx(1.0 / math.sqrt(9 + 4 * math.sqrt(3)), abs=1e-14)


class TestJacobianFieldRatio:
    def test_linear_offset(self):
        from contraction_lab.contraction import linear_additive_field

        field = linear_additive_field(1)
        assert jacobian_field_ratio(field, [10.0], [0.0]) == pytest.approx(0.1, abs=1e-12)

    def test_zero_field_raises(self):
        from contraction_lab.contraction import linear_additive_field

        field = linear_additive_field(1)
        with pytest.raises(ZeroFieldError):
            jacobian_field_ratio(field, [0.0], [0.0])

    def test_example1_ratio_is_reciprocal(self):
        field, family = example_3d_system()
        for k in (1, 4, 32):
            u = family.generator(k, 1)
            assert jacobian_field_ratio(field, u, [0.0, 0.0, 0.0]) == pytest.approx(1.0 / k, rel=1e-12)


class TestExampleSystems:
    def test_input_matrix_columns(self):
        field, _ = example_3d_system()
        zero = [0.0, 0.0, 0.0]
        assert np.array_equal(field(zero, [1, 0, 0, 0]), [1.0, 0.0, 0.0])
        assert np.array_equal(field(zero, [0, 0, 0, 1]), [-1.0, -1.0, -1.0])

    def test_jacobian_is_minus_identity(self, rng):
        field, _ = example_3d_system()
        x = rng.normal(size=3)
        assert np.array_equal(field.jacobian_x(x, np.zeros(4)), -np.eye(3))

    def test_identity_metric_certifies_contraction(self):
        # The same system is contractive in the plain Euclidean metric while
        # the constancy-forcing conditions hold - consistent with the
        # conclusion that only constant metrics survive.
        field, _ = example_3d_system()
        metric = RiemannianMetric.constant(np.eye(3))
        box = [(-2.0, 2.0)] * 3
        for c in (np.zeros(4), np.array([3.0, 0.0, 0.0, 0.0])):
            cert = check_contraction_region(field, metric, box, [5, 5, 5], 2.0, c)
            assert cert.holds
            assert cert.margin == pytest.approx(0.0, abs=1e-14)

    def test_simplex_directions_are_unit(self):
        dirs = simplex_directions(3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
        assert np.allclose(dirs.sum(axis=0), 0.0, atol=1e-15)


class TestCheckConditions:
    def test_example1_certified(self):
        field, family = example_3d_system()
        rho = polytope_inradius(EXAMPLE1_DIRECTIONS) / 2
        report = check_constant_metric_conditions(field, family, [[0, 0, 0], [0.05, -0.05, 0.05]], rho)
        assert report.certified
        assert report.hull_ok and report.ratios_ok
        assert report.largest_checked_index == 1024

    def test_example2_certified(self):
        field, family = example_additive_3d()
        rho = polytope_inradius(simplex_directions(3)) / 2
        report = check_constant_metric_conditions(field, family, [[0, 0, 0], [0.05, -0.05, 0.05]], rho)
        assert report.certified

    def test_example2_reproduces_unbounded_input_conclusion(self):
        # With f(x) = -x the additive family drives ||c|| to infinity, the
        # ratio to 0, and the hull condition holds: the same pathway that
        # rules out non-constant metrics for unbounded input sets.
        field, family = example_additive_3d()
        x = [0.3, -0.2, 0.1]
        r_prev = None
        for i in (64, 128, 256):
            r = max(jacobian_field_ratio(field, u, x) for u in family.inputs_at(i))
            if r_prev is not None:
                assert r < r_prev
            r_prev = r
        assert r_prev < 1e-2

    def test_single_sequence_fails_hull(self):
        field, _ = example_3d_system()
        family = InputSequenceFamily(k=1, generator=lambda i, j: float(i) * np.eye(4)[0])
        report = check_constant_metric_conditions(field, family, [[0, 0, 0]], 0.1)
        assert report.hull_certified_from == [None]
        assert not report.certified

    def test_ratio_values_recorded_exactly(self):
        field, family = example_3d_system()
        rho = polytope_inradius(EXAMPLE1_DIRECTIONS) / 2
        report = check_constant_metric_conditions(field, family, [[0, 0, 0]], rho, i_list=(1, 2, 4))
        ratios = [e["max_ratio"] for e in report.entries]
        assert ratios == pytest.approx([1.0, 0.5, 0.25], rel=1e-12)

    def test_zero_field_propagates_location(self):
        field, _ = example_3d_system()
        family = InputSequenceFamily(k=1, generator=lambda i, j: np.zeros(4))
        with pytest.raises(ZeroFieldError) as exc_info:
            check_constant_metric_conditions(field, family, [[0.0, 0.0, 0.0]], 0.1)
        assert exc_info.value.i == 1
        assert exc_info.value.j == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_raises(self, bad):
        # The analytic Jacobian stays finite, so only the field values can tell.
        field, family = example_3d_system()
        poisoned = VectorField(
            lambda x, u: np.where(u[0] >= 4.0, bad, field(x, u)), 3, 4, jacobian=lambda x, u: -np.eye(3)
        )
        with pytest.raises(NonFiniteError):
            check_constant_metric_conditions(poisoned, family, [[0.0, 0.0, 0.0], [0.5, 0.25, 0.0]], 0.1)

    def test_zero_field_reports_first_index_then_sample_then_input(self):
        # f(x, u) = -x + B u vanishes where B u = x: input 3 is e3 from index 4
        # on, zeroing f at sample 1; input 2 is e2 from index 2 on, zeroing f
        # at sample 2.
        field, _ = example_3d_system()
        samples = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        zeroing = {3: 4, 2: 2}  # input j -> first index at which it zeroes f

        def generator(i, j):
            return np.eye(4)[j - 1] * (1.0 if i >= zeroing.get(j, math.inf) else 10.0 * i)

        family = InputSequenceFamily(k=4, generator=generator)
        for i_list, expected in [((1, 2, 4), (2, 1, 2)), ((4,), (4, 0, 3))]:
            with pytest.raises(ZeroFieldError) as exc_info:
                check_constant_metric_conditions(field, family, samples, 0.1, i_list=i_list)
            i, sample, j = expected
            assert (exc_info.value.i, exc_info.value.x.tolist(), exc_info.value.j) == (i, samples[sample], j)

    def test_report_serializes(self):
        field, family = example_3d_system()
        report = check_constant_metric_conditions(field, family, [[0, 0, 0]], 0.1, i_list=(1, 2))
        doc = json.loads(report.to_json())
        assert doc["certified"] == report.certified
        assert len(doc["entries"]) == 2
        assert {"x", "i", "hull_holds", "max_ratio"} <= set(doc["entries"][0])

    def test_one_field_call_per_input(self):
        # 11 indices x 4 inputs: one field call per input covers both samples.
        field, family = example_3d_system()
        calls = []

        def counted(x, u):
            calls.append(1)
            return field(x, u)

        counting = VectorField(counted, 3, 4, jacobian=field.jacobian_x)
        rho = polytope_inradius(EXAMPLE1_DIRECTIONS) / 2
        samples = [[0, 0, 0], [0.05, -0.05, 0.05]]
        report = check_constant_metric_conditions(counting, family, samples, rho)
        assert len(calls) == 44
        assert report.to_json() == check_constant_metric_conditions(field, family, samples, rho).to_json()

    @pytest.mark.parametrize(
        "samples, rho",
        [([], 0.1), ([[0, 0, 0]], math.nan), ([[0, 0, 0]], math.inf), ([[0, 0, 0]], 0.0), ([[0, 0, 0]], -0.1)],
    )
    def test_vacuous_or_bad_rho_raises_before_any_field_call(self, samples, rho):
        def unreachable(x, u):
            raise AssertionError("no field value may be computed")

        _, family = example_3d_system()
        with pytest.raises(ValueError):
            check_constant_metric_conditions(VectorField(unreachable, 3, 4), family, samples, rho)

    def test_hull_certified_from_first_index_of_the_stable_tail(self):
        # All four inputs point along e1 at i = 2, so the hull condition holds
        # at 1, fails at 2 and holds from 4 on.
        field, _ = example_3d_system()
        family = InputSequenceFamily(k=4, generator=lambda i, j: float(i) * np.eye(4)[0 if i == 2 else j - 1])
        rho = polytope_inradius(EXAMPLE1_DIRECTIONS) / 2
        report = check_constant_metric_conditions(field, family, [[0, 0, 0]], rho, i_list=(1, 2, 4, 8))
        assert [e["hull_holds"] for e in report.entries] == [True, False, True, True]
        assert report.hull_certified_from == [4]

    @pytest.mark.parametrize("scale_at_4, decays", [(4.0, True), (8.0, False), (3.0, False)])
    def test_ratio_decay_needs_every_doubling_in_band(self, scale_at_4, decays):
        # The ratios are 1/scale(i): 1, 1/2, 1/scale_at_4, 1/8, ..., 1/128.
        # Skipping doublings (8 to 128) leaves the band as well.
        field, _ = example_3d_system()
        scale = lambda i: scale_at_4 if i == 4 else float(i)
        family = InputSequenceFamily(k=4, generator=lambda i, j: scale(i) * np.eye(4)[j - 1])
        rho = polytope_inradius(EXAMPLE1_DIRECTIONS) / 2
        report = check_constant_metric_conditions(field, family, [[0, 0, 0]], rho, i_list=(1, 2, 4, 8, 128))
        assert report.ratio_decay_ok == [False]
        report = check_constant_metric_conditions(field, family, [[0, 0, 0]], rho, i_list=(1, 2, 4, 8, 16, 32, 64, 128))
        assert report.ratio_decay_ok == [decays]
