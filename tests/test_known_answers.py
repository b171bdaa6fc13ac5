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

import pytest

from contraction_lab.cli import main
from contraction_lab.counterexample import TWO_PI, circle_field, radial_f
from contraction_lab.dynamics import PeriodicInput
from contraction_lab.entrainment import DIVERGES, ENTRAINS, INCONCLUSIVE, detect_entrainment

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

