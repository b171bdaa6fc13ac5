"""Integrator oracle: ``dynamics.integrate`` against the exact solutions of random linear systems.

The system is x' = Ax + u(t) with A = -diag(d) + S, d in [0.2, 3] and S skew, so every solution contracts at rate
0.2 or more in the Euclidean norm, and u is piecewise constant.  On a piece of length h under a constant u the exact
flow is x -> e^{Ah}(x - x*) + x*, x* = -A^{-1}u, applied piece by piece with scipy's ``expm``.  The draws cover
state dimensions 1-3; batches on both sides of ``dynamics._PYTHON_NORM_MAX`` (16 floats), so both error norms run;
1-200 pieces over spans of 0.5-5 that start away from 0, so pieces average both more and fewer than
``dynamics._STEPS_PER_PIECE_MIN`` starting steps and both pairs run; three tolerances; and in about one draw in ten
a first piece of 1e-15, 3e-16 or 1e-13, far shorter than the span's minimum step of 1e-14 of its length.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab import dynamics
from contraction_lab.dynamics import IntegratorConfig, PiecewiseConstantInput, VectorField, integrate

expm = pytest.importorskip("scipy.linalg").expm

SHORT_FIRST_PIECES = (1e-15, 3e-16, 1e-13)


@st.composite
def linear_runs(draw):
    """A stable A, the starts, the cut times (span ends included), one input per piece and the tolerances."""
    n, batch = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 5, 9, 17]))
    pieces, t0, span = draw(st.integers(1, 200)), draw(st.floats(0.25, 2.0)), draw(st.floats(0.5, 5.0))
    rel_tol = draw(st.sampled_from([1e-6, 1e-9, 1e-11]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skew = rng.uniform(-1.0, 1.0, (n, n))
    a = np.diag(-rng.uniform(0.2, 3.0, n)) + skew - skew.T
    x0 = rng.uniform(-2.0, 2.0, (batch, n) if batch > 1 else n)
    lengths = rng.uniform(0.5, 1.5, pieces)
    cuts = (t0 + span * np.concatenate([[0.0], np.cumsum(lengths) / lengths.sum()])).tolist()
    if rng.uniform() < 0.1:
        cuts.insert(1, t0 + SHORT_FIRST_PIECES[rng.integers(3)])
    values = rng.uniform(-2.0, 2.0, (len(cuts) - 1, n))
    return a, x0, cuts, values, IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100)


def exact_states(a, x0, cuts, values):
    """The exact state at every cut, piece by piece, as an array (len(cuts), N, n)."""
    x = np.atleast_2d(x0)
    states = [x]
    for t, t_end, u in zip(cuts[:-1], cuts[1:], values):
        rest = np.linalg.solve(a, -u)
        x = (x - rest) @ expm(a * (t_end - t)).T + rest
        states.append(x)
    return np.array(states)


def test_integrate_matches_exact_solutions():
    # Which pair ran is read off the starting step that _hinit returns, by
    # the rule of the module docstring: pieces averaging at least
    # _STEPS_PER_PIECE_MIN starting steps take the 8(5,3) pair.
    seen, starting_steps = Counter(), []
    hinit = dynamics._hinit

    def recording_hinit(*args):
        starting_steps.append(hinit(*args))
        return starting_steps[-1]

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(run=linear_runs())
    def matches(run):
        a, x0, cuts, values, config = run
        field = VectorField(lambda x, u: x @ a.T + u, len(a), len(a))
        signal = PiecewiseConstantInput(cuts[1:-1], values)
        with mock.patch.object(dynamics, "_hinit", recording_hinit):
            traj = integrate(field, signal, x0, (cuts[0], cuts[-1]), config)
        # Every cut is a step end, so the exact state is known at each.
        at_cuts = np.searchsorted(traj.times, cuts)
        assert traj.times[at_cuts].tolist() == cuts
        exact = exact_states(a, x0, cuts, values)
        scale = config.rel_tol * np.maximum(1.0, np.abs(exact))
        assert np.all(np.abs(traj.states[at_cuts].reshape(exact.shape) - exact) <= scale)
        mean_piece = (cuts[-1] - cuts[0]) / (len(cuts) - 1)
        seen["8(5,3)" if mean_piece >= dynamics._STEPS_PER_PIECE_MIN * starting_steps[-1] else "5(4)"] += 1
        seen["short first piece"] += cuts[1] - cuts[0] < 1e-12
        if np.size(x0) > dynamics._PYTHON_NORM_MAX:
            seen["NumPy norm"] += 1
            return
        # The Python-float error norm is the NumPy one bit for bit.
        seen["Python norm"] += 1
        with mock.patch.object(dynamics, "_PYTHON_NORM_MAX", -1):
            numpy_traj = integrate(field, signal, x0, (cuts[0], cuts[-1]), config)
        assert numpy_traj.times.tobytes() == traj.times.tobytes()
        assert numpy_traj.states.tobytes() == traj.states.tobytes()

    matches()
    assert min(seen[k] for k in ("8(5,3)", "5(4)", "short first piece", "NumPy norm", "Python norm")) > 0, seen
