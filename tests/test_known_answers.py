"""Known-answer bank: no checker may contradict a closed form.

Each case is a system whose answer follows from a closed form.  A checker
may give the right answer or say it cannot tell; it fails a case only by
giving the wrong answer.  A wrong answer the library gives today is marked
``xfail(strict=True)`` with the ROADMAP item that mends it, so the fix must
remove the marker.

The forced circle is the paper's planar field driven by a (cos t, sin t).
In the frame rotating with the input its rest points are rho e1 with
f(rho) = -a, where f(r) = -r + (r/2) sin(r^2) is the radial drift; so the
system entrains exactly when a < a* = -f(r*) = 1.3983839005558376, where
the rest point is unique.  At a* the circle of radius r* is a second,
semi-stable periodic orbit; at a = 1.45 there are three.
"""

import math

import numpy as np
import pytest

from contraction_lab.cli import main
from contraction_lab.constant_metric import hull_contains_ball, polytope_inradius
from contraction_lab.contraction import check_contraction_region, linear_additive_field, scalar_example_system
from contraction_lab.counterexample import TWO_PI, circle_field, radial_f
from contraction_lab.dynamics import PeriodicInput
from contraction_lab.entrainment import DIVERGES, ENTRAINS, INCONCLUSIVE, detect_entrainment
from contraction_lab.errors import ApproximationNotConvergingError
from contraction_lab.flowspace import check_limit_contraction, flow_from_field

# Generic starts: at the origin, just inside the circle r*, and on both sides of it.
FIVE_STARTS = [[0.0, 0.0], [2.79, 0.0], [1.0, 1.0], [-3.0, 2.0], [4.0, -4.0]]


def forced_circle(a):
    return circle_field(), PeriodicInput(TWO_PI, lambda t: [a * math.cos(t), a * math.sin(t)])


def rest_radius(a, lo, hi):
    """The root of f(rho) = -a in [lo, hi], by bisection on a sign change."""
    assert (radial_f(lo) + a) * (radial_f(hi) + a) < 0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if (radial_f(lo) + a) * (radial_f(mid) + a) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_forced_circle_below_threshold_entrains():
    # a = 1.3 < a*: one rest point, at rho = 1.645626633, and entrainment.
    verdict = detect_entrainment(*forced_circle(1.3), FIVE_STARTS)
    assert verdict.status in (ENTRAINS, INCONCLUSIVE)
    if verdict.status == ENTRAINS:
        rho = rest_radius(1.3, 1.5, 1.8)
        assert math.dist(verdict.orbit_sample, [rho, 0.0]) < 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: the iterate rule cannot see the semi-stable orbit at r*, and says entrains",
)
def test_paper_counterexample_does_not_entrain(forced_system):
    # a = a*: two periodic orbits, the stable one at rho = 1.6748545 and the circle r*.
    verdict = detect_entrainment(*forced_system, FIVE_STARTS)
    assert verdict.status in (DIVERGES, INCONCLUSIVE)


def test_forced_circle_above_threshold_does_not_entrain():
    # a = 1.45 > a*: stable orbits at 1.689 and 2.839 and a saddle at 2.741.
    verdict = detect_entrainment(*forced_circle(1.45), FIVE_STARTS)
    assert verdict.status in (DIVERGES, INCONCLUSIVE)


def test_slow_escape_is_not_refuted(tmp_path, capsys):
    # A start 1e-6 inside r* escapes (f(r) < f(r*) near r*), however slowly.
    assert main(["run", "divergence", "--delta", "1e-6", "--out", str(tmp_path)]) != 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 17: the start settles near the stable orbit at 1.6749, and the iterate rule neither merges "
    "the pair nor doubles its distance, so the true escape reads inconclusive",
)
def test_escape_to_the_stable_orbit_is_confirmed(tmp_path, capsys):
    # f(r) < f(r*) on (1.6749, r*), so a start 0.7 inside r* falls to the stable orbit and never returns.
    assert main(["run", "divergence", "--delta", "0.7", "--out", str(tmp_path)]) == 0



def test_ges_check_at_long_horizon_is_not_refuted(tmp_path, capsys):
    # f(r) + r/2 = (r/2)(sin r^2 - 1) <= 0 for every r, so |x(t)| <= exp(-t/2)|x0| at every horizon.
    assert main(["run", "ges-check", "--horizon", "60", "--out", str(tmp_path)]) != 1


def test_flow_limit_of_contracting_field_is_not_refuted():
    # x' = -x + u contracts at rate 1 under every input, so the limit signal's flow does too.
    target = PeriodicInput(TWO_PI, lambda t: [0.8 * math.sin(t + math.pi / 6)])
    pairs = [([-2.0], [2.0]), ([0.5], [1.5])]
    try:
        cert = check_limit_contraction(
            flow_from_field(linear_additive_field(1)), (-1.0, 1.0), -1.0, target, 8, pairs, (0.0, TWO_PI)
        )
    except ApproximationNotConvergingError:
        return  # cannot tell: allowed
    assert cert.holds


# The closed form of ROADMAP item 12: constant inputs below c*(20) = 0.021657,
# and only those, keep the scalar metric contracting at rate 1/3 on [-20, 20].
@pytest.mark.parametrize("c", [0.0215, 0.0218])
def test_scalar_metric_breaks_at_the_closed_form_threshold(c):
    field, metric = scalar_example_system()
    cert = check_contraction_region(field, metric, (-20.0, 20.0), 40001, 1.0 / 3.0, [c])
    assert cert.holds == (c < 0.021657)


def test_hull_refuses_ball_wider_than_inradius():
    # An equilateral triangle of inradius 1 (circumradius 2), turned so that
    # no edge normal is one of 512 evenly spaced directions: a sampled
    # support test accepts rho = 1.001 here.
    normals = math.pi / 512 + TWO_PI * np.arange(3) / 3
    angles = normals + math.pi / 3
    vertices = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    assert abs(polytope_inradius(vertices) - 1.0) <= 1e-12
    assert hull_contains_ball(vertices, 0.999)
    assert not hull_contains_ball(vertices, 1.001)
