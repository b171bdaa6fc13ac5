import json
import math

import numpy as np
import pytest

from contraction_lab.dynamics import IntegratorConfig, PeriodicInput, VectorField, integrate
from contraction_lab.entrainment import (
    DIVERGES,
    ENTRAINS,
    INCONCLUSIVE,
    EntrainmentVerdict,
    counterexample_divergence,
    detect_entrainment,
    poincare_map,
)

TWO_PI = 2 * math.pi


def linear_sine_system():
    field = VectorField(lambda x, u: -x + u, 1, 1, jacobian=lambda x, u: np.array([[-1.0]]))
    signal = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
    return field, signal


def rotation_field():
    # x' = (x2, -x1) row by row: a neutral rotation whose return map is the identity.
    return VectorField(lambda x, u: np.stack([x[..., 1], -x[..., 0]], axis=-1), 2, 1)


class TestPoincareMap:
    def test_fixed_point_of_linear_system(self):
        field, signal = linear_sine_system()
        out = poincare_map(field, signal, [-0.5])
        assert out[0] == pytest.approx(-0.5, abs=1e-8)

    def test_orbit_is_fixed_point(self, r_star, forced_system):
        field, signal = forced_system
        out = poincare_map(field, signal, [r_star, 0.0])
        assert np.linalg.norm(out - [r_star, 0.0]) <= 1e-7

    def test_zero_field_is_identity(self):
        field = VectorField(lambda x, u: np.zeros_like(x), 2, 1)
        signal = PeriodicInput(1.0, lambda t: [0.0])
        out = poincare_map(field, signal, [3.0, -4.0])
        assert np.allclose(out, [3.0, -4.0], atol=1e-12)

    @pytest.mark.parametrize("case", ["linear", "counterexample"])
    def test_batch_matches_each_row_alone(self, case, r_star, forced_system):
        # A batch takes other steps than a single start, so the two agree to
        # the global error: a few 1e-9 at the default tolerance on the forced
        # orbit, about 2e-11 at the one used here.
        config = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        if case == "linear":
            (field, signal), batch = linear_sine_system(), [[-10.0], [0.0], [0.25], [10.0]]
        else:
            (field, signal), batch = forced_system, [[r_star, 0.0], [r_star - 0.1, 0.0], [-1.0, 2.0]]
        out = poincare_map(field, signal, batch, config)
        assert out.shape == np.shape(batch)
        for x0, row in zip(batch, out):
            assert np.max(np.abs(row - poincare_map(field, signal, x0, config))) <= 1e-9

    def test_requires_periodic_input(self):
        from contraction_lab.dynamics import ConstantInput

        field, _ = linear_sine_system()
        with pytest.raises(TypeError):
            poincare_map(field, ConstantInput([0.0]), [1.0])

    def test_composition_equals_double_span(self):
        field, signal = linear_sine_system()
        twice = poincare_map(field, signal, poincare_map(field, signal, [2.0]))
        direct = integrate(field, signal, [2.0], (0.0, 2 * TWO_PI)).final_state
        assert abs(twice[0] - direct[0]) <= 1e-8


class TestDetectEntrainment:
    def test_linear_system_entrains(self):
        field, signal = linear_sine_system()
        verdict = detect_entrainment(field, signal, [[-10.0], [0.0], [10.0]], 50, 1e-8)
        assert verdict.status == ENTRAINS
        assert verdict.orbit_sample[0] == pytest.approx(-0.5, abs=1e-8)

    def test_counterexample_diverges(self, r_star, forced_system):
        field, signal = forced_system
        verdict = detect_entrainment(field, signal, [[r_star, 0.0], [r_star - 0.1, 0.0]], 50, 1e-8)
        assert verdict.status == DIVERGES
        assert verdict.iterations <= 50
        assert verdict.witness_pair == (0, 1)

    def test_neutral_rotation_inconclusive(self):
        signal = PeriodicInput(TWO_PI, lambda t: [0.0])
        verdict = detect_entrainment(rotation_field(), signal, [[1.0, 0.0], [2.0, 0.0]], 6, 1e-8)
        assert verdict.status == INCONCLUSIVE

    @pytest.mark.parametrize(
        "case, status, iterations",
        [("linear", ENTRAINS, 5), ("counterexample", DIVERGES, 1), ("rotation", INCONCLUSIVE, 6)],
    )
    def test_matches_pointwise_iteration(self, case, status, iterations, r_star, forced_system):
        # The lockstep return map reaches the verdict of iterating every start
        # on its own, after the same number of iterations, with iterates that
        # agree row by row to the global error at the default tolerance.
        field, signal, starts, max_iterations = {
            "linear": (*linear_sine_system(), [[-10.0], [0.0], [10.0]], 50),
            "counterexample": (*forced_system, [[r_star, 0.0], [r_star - 0.1, 0.0]], 50),
            "rotation": (rotation_field(), PeriodicInput(TWO_PI, lambda t: [0.0]), [[1.0, 0.0], [2.0, 0.0]], 6),
        }[case]
        verdict = detect_entrainment(field, signal, starts, max_iterations, 1e-8)
        assert (verdict.status, verdict.iterations) == (status, iterations)
        assert verdict.iterates.shape == (len(starts), iterations + 1, len(starts[0]))
        assert np.array_equal(verdict.iterates[:, 0], starts)
        for start, seq in zip(starts, verdict.iterates):
            x = np.asarray(start, dtype=float)
            for mapped in seq[1:]:
                x = poincare_map(field, signal, x)
                assert np.max(np.abs(mapped - x)) <= 1e-8

    def test_permutation_invariance(self):
        field, signal = linear_sine_system()
        a = detect_entrainment(field, signal, [[-10.0], [0.0], [10.0]], 50, 1e-8)
        b = detect_entrainment(field, signal, [[10.0], [-10.0], [0.0]], 50, 1e-8)
        assert a.status == b.status
        assert a.orbit_sample[0] == pytest.approx(b.orbit_sample[0], abs=1e-10)

    def test_needs_two_points(self):
        field, signal = linear_sine_system()
        with pytest.raises(ValueError):
            detect_entrainment(field, signal, [[0.0]], 10, 1e-8)

    @pytest.mark.parametrize(
        "max_iterations, tol",
        [(50, math.nan), (50, 0.0), (50, -1e-8), (50, math.inf), (0, 1e-8), (-3, 1e-8)],
    )
    def test_bad_arguments_raise_before_any_return_map(self, max_iterations, tol):
        def unreachable(x, u):
            raise AssertionError("no return map may run")

        signal = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
        with pytest.raises(ValueError):
            detect_entrainment(VectorField(unreachable, 1, 1), signal, [[-1.0], [1.0]], max_iterations, tol)

    def test_uniform_contraction_bounds_iterate_rate(self):
        # Identity-metric certificate at matrix rate beta = 2 implies the
        # return map contracts pairs by at least exp(-beta*T/2) + slack.
        from contraction_lab.contraction import RiemannianMetric, check_uniform_contraction, linear_additive_field

        field = linear_additive_field(1)
        cert = check_uniform_contraction(
            field, RiemannianMetric.constant([[1.0]]), (-1.0, 1.0), 5, (-5.0, 5.0), 21, 2.0
        )
        assert cert.holds
        signal = PeriodicInput(TWO_PI, lambda t: [math.sin(t)])
        a, b = [4.0], [-3.0]
        a1, b1 = poincare_map(field, signal, a), poincare_map(field, signal, b)
        factor = abs(a1[0] - b1[0]) / abs(a[0] - b[0])
        assert factor <= math.exp(-2.0 * TWO_PI / 2) + 0.05


def test_stability_and_divergence_coexist(r_star, forced_system):
    # The headline joint claim on one system: the unforced dynamics decay
    # exponentially to the origin, yet the same field under the rotating
    # input drives nearby starts apart.
    from contraction_lab.counterexample import random_initial_conditions, verify_ges

    ges = verify_ges(random_initial_conditions(20, 10.0, seed=3), horizon=15.0, rate=0.5)
    assert ges.holds
    field, signal = forced_system
    verdict = detect_entrainment(field, signal, [[r_star, 0.0], [r_star - 0.1, 0.0]], 50, 1e-8)
    assert verdict.status == DIVERGES


class TestCounterexampleDivergence:
    def test_small_perturbation_escapes(self, r_star):
        report = counterexample_divergence(r_star, 0.1, 10)
        assert report.grew
        assert report.distances[1] > report.distances[0]
        assert report.monotone_prefix >= 3
        assert report.distances[-1] > 1.0

    def test_on_orbit_stays(self, r_star):
        report = counterexample_divergence(r_star, 0.0, 10)
        assert max(report.distances) <= 1e-6

    def test_large_perturbation_heads_inward(self, r_star):
        report = counterexample_divergence(r_star, 0.5, 10)
        final_radius = float(np.linalg.norm(report.trajectory.final_state))
        assert final_radius < r_star - 0.5

    def test_marks_are_step_ends(self, r_star):
        report = counterexample_divergence(r_star, 0.1, 4)
        marks = np.arange(5) * 2 * math.pi
        assert np.isin(marks, report.trajectory.times).all()
        assert np.array_equal(report.trajectory.times, report.orbit_trajectory.times)

    def test_distances_match_tight_tolerance_run(self, r_star):
        # Each d_k is read at a step end, so it carries only the step error
        # control and agrees with a much tighter run.
        report = counterexample_divergence(r_star, 0.1, 10)
        tight = counterexample_divergence(r_star, 0.1, 10, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15))
        assert np.max(np.abs(np.subtract(report.distances, tight.distances))) <= 2e-10

    def test_first_distance_matches_mpmath(self, r_star):
        # d_1 from mpmath's odefun on the axis ODE rho' = f(rho) + a at 40 digits.
        report = counterexample_divergence(r_star, 0.1, 1)
        assert report.distances[1] == pytest.approx(1.1161338629190528, rel=1e-12, abs=0.0)

    def test_slow_escape_grows_as_the_normal_form(self, r_star):
        # At delta = 1e-6 the true growth over one period is 1.346442488e-10
        # (mpmath); the normal form 2 pi |f''(r*)|/2 delta^2 agrees to 1.5e-4.
        d0, d1 = counterexample_divergence(r_star, 1e-6, 1).distances
        assert d1 - d0 == pytest.approx(1.346442488e-10, rel=1e-3, abs=0.0)

    def test_trajectories_keep_their_inertial_meaning(self, r_star):
        # The on-orbit start rides the circle in phase with the forcing.
        orbit = counterexample_divergence(r_star, 0.1, 2).orbit_trajectory
        circle = r_star * np.column_stack([np.cos(orbit.times), np.sin(orbit.times)])
        assert np.max(np.abs(orbit.states - circle)) <= 1e-9

    def test_validations(self, r_star):
        with pytest.raises(ValueError):
            counterexample_divergence(r_star, -0.1, 5)
        with pytest.raises(ValueError):
            counterexample_divergence(r_star, r_star, 5)
        with pytest.raises(ValueError):
            counterexample_divergence(r_star, 0.1, 0)

    def test_csv_export(self, r_star, tmp_path):
        report = counterexample_divergence(r_star, 0.1, 2)
        pert, orbit = tmp_path / "pert.csv", tmp_path / "orbit.csv"
        report.export_csv(pert, orbit)
        for path, traj in ((pert, report.trajectory), (orbit, report.orbit_trajectory)):
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "t,x,y,r"
            assert len(lines) == len(traj.times) + 1
            t, x, y, r = map(float, lines[-1].split(","))
            assert r == pytest.approx(math.hypot(x, y), rel=1e-15)

    def test_verdict_serializes(self, r_star, forced_system):
        field, signal = forced_system
        verdict = detect_entrainment(field, signal, [[r_star, 0.0], [r_star - 0.1, 0.0]], 50, 1e-8)
        doc = json.loads(verdict.to_json())
        assert doc["status"] == "diverges"
        assert len(doc["iterates"]) == 2

    def test_verdict_keys_in_field_order(self):
        verdict = EntrainmentVerdict("entrains", orbit_sample=np.array([-0.5]), iterations=1, iterates=np.zeros((2, 2, 1)))
        doc = json.loads(verdict.to_json())
        assert list(doc) == ["status", "orbit_sample", "witness_pair", "iterations", "iterates"]
        assert doc["orbit_sample"] == [-0.5] and doc["witness_pair"] is None
        assert doc["iterates"] == [[[0.0], [0.0]], [[0.0], [0.0]]]
