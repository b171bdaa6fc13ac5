"""Period-map machinery: return maps, entrainment verdicts, divergence runs.

A system forced by a T-periodic input entrains exactly when the time-T
return map has a unique globally attracting fixed point, so verdicts are
computed from return-map iterates: convergence of every tested sequence to
a common limit is an entrainment certificate, while a pair of iterate
sequences whose mutual distance doubles from its running minimum certifies
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .certificates import FLOAT_FORMAT, JsonRecord
from .counterexample import TWO_PI, build_counterexample
from .dynamics import IntegratorConfig, PeriodicInput, Trajectory, VectorField, integrate
from .linalg import vector_norms

__all__ = [
    "EntrainmentVerdict",
    "poincare_map",
    "detect_entrainment",
    "DivergenceReport",
    "counterexample_divergence",
]

ENTRAINS = "entrains"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"

_MONOTONE_SLACK = 1e-8


@dataclass
class EntrainmentVerdict(JsonRecord):
    """Outcome of iterating the return map from a set of initial conditions.

    status       -- "entrains" | "diverges" | "inconclusive"
    orbit_sample -- phase-0 point of the detected limit cycle (entrains only)
    witness_pair -- indices of initial conditions whose iterate distance
                    doubled from its minimum (diverges only)
    iterations   -- number of return-map applications performed
    iterates     -- ``(starts, iterations + 1, n)`` array: each initial
                    condition followed by its return-map values
    """

    status: str
    orbit_sample: np.ndarray | None = None
    witness_pair: tuple[int, int] | None = None
    iterations: int = 0
    iterates: np.ndarray = dataclass_field(default_factory=lambda: np.empty((0, 0, 0)))


def poincare_map(field: VectorField, signal: PeriodicInput, x0, config: IntegratorConfig | None = None) -> np.ndarray:
    """State reached at time T from x0 at time 0 under the periodic input.

    ``x0`` is one state ``(n,)`` or a batch ``(N, n)``, mapped in one
    lockstep integration; the result has the shape of ``x0``.
    """
    if not isinstance(signal, PeriodicInput):
        raise TypeError("poincare_map requires a periodic input signal")
    traj = integrate(field, signal, x0, (0.0, signal.period), config)
    return traj.final_state


def detect_entrainment(
    field: VectorField,
    signal: PeriodicInput,
    initial_set,
    max_iterations: int = 50,
    tol: float = 1e-8,
    config: IntegratorConfig | None = None,
) -> EntrainmentVerdict:
    """Classify return-map behaviour from several initial conditions.

    Entrains: every iterate sequence's successive-difference norm falls
    below ``tol`` and all sequences agree pairwise within 10*tol.
    Diverges: some pair's iterate distance grows to twice its running
    minimum (minima below ``tol`` are treated as merged and do not arm the
    divergence trigger).  Anything else after ``max_iterations`` returns
    inconclusive.  A ``tol`` that is not finite and positive, or
    ``max_iterations`` below 1, raises ``ValueError``.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    current = np.stack([np.atleast_1d(np.asarray(x, dtype=float)) for x in initial_set])
    if len(current) < 2:
        raise ValueError("need at least two initial conditions")
    history = [current]
    first, second = np.triu_indices(len(current), k=1)  # the pairs i < j, in row order
    min_dist = vector_norms(current[first] - current[second])

    def verdict(status, iterations, **found):
        return EntrainmentVerdict(status, iterates=np.stack(history, axis=1), iterations=iterations, **found)

    for it in range(1, max_iterations + 1):
        prev = current
        # Every start shares the signal, so one lockstep return map moves them all.
        current = poincare_map(field, signal, prev, config)
        history.append(current)
        dist = vector_norms(current[first] - current[second])
        split = (dist >= 2.0 * np.maximum(min_dist, tol)) & (min_dist > 0)
        if np.any(split):
            k = int(np.argmax(split))
            return verdict(DIVERGES, it, witness_pair=(int(first[k]), int(second[k])))
        min_dist = np.minimum(min_dist, dist)
        if np.max(vector_norms(current - prev)) < tol and np.max(dist) <= 10.0 * tol:
            return verdict(ENTRAINS, it, orbit_sample=np.mean(current, axis=0))
    return verdict(INCONCLUSIVE, max_iterations)


@dataclass
class DivergenceReport(JsonRecord):
    """Distance-from-orbit record for a perturbed initial condition.

    distances[k] = | ||x(2 pi k)|| - r_star |.  The escape from the orbit is
    monotone in exact arithmetic for as long as the radius stays in the band
    where the radial drift is below its value at r_star; once the increments
    shrink under the integrator noise floor the comparison uses a 1e-8
    slack, recorded as ``monotone_prefix``.  The perturbed trajectory and
    the on-orbit reference share their time stamps and are retained for CSV
    export, not serialized.
    """

    r_star: float
    delta: float
    periods: int
    distances: list[float]
    monotone_prefix: int
    grew: bool
    trajectory: Trajectory
    orbit_trajectory: Trajectory

    _json_skip = ("trajectory", "orbit_trajectory")

    def export_csv(self, perturbed_path, orbit_path) -> None:
        """Write both trajectories as `t,x,y,r` rows for external plotting."""
        for path, traj in ((perturbed_path, self.trajectory), (orbit_path, self.orbit_trajectory)):
            rows = np.column_stack([traj.times, traj.states, vector_norms(traj.states)])
            np.savetxt(path, rows, fmt=FLOAT_FORMAT, delimiter=",", header="t,x,y,r", comments="")


def counterexample_divergence(
    r_star: float,
    delta: float,
    n_periods: int,
    config: IntegratorConfig | None = None,
) -> DivergenceReport:
    """Track the distance from the forced circular orbit for a perturbed start.

    Integrates from (r_star - delta, 0) under the rotating input for
    ``n_periods`` periods, in lockstep with the on-orbit start (r_star, 0),
    and reports d_k = | ||x(2 pi k)|| - r_star | read at step ends.
    While the radius stays in the band where the radial drift is below its
    value at r_star, d_k is necessarily nondecreasing; the report records
    the observed strictly-monotone prefix and whether d_n > d_0.
    """
    if not 0 <= delta < r_star:
        raise ValueError("delta must satisfy 0 <= delta < r_star")
    if n_periods < 1:
        raise ValueError("need at least one period")
    field, signal = build_counterexample(r_star)
    # Row 0 is the perturbed start and row 1 the on-orbit reference.  Each
    # period is its own integration, so every mark 2 pi k is a step end.
    times, states = [0.0], [np.array([[r_star - delta, 0.0], [r_star, 0.0]])]
    marks = [0]
    for k in range(n_periods):
        period = integrate(field, signal, states[-1], (k * TWO_PI, (k + 1) * TWO_PI), config)
        times.extend(period.times[1:])
        states.extend(period.states[1:])
        marks.append(len(times) - 1)
    path = np.array(states)
    distances = np.abs(vector_norms(path[marks, 0]) - r_star)
    rising = distances[1:] > distances[:-1] - _MONOTONE_SLACK
    return DivergenceReport(
        r_star=float(r_star),
        delta=float(delta),
        periods=int(n_periods),
        distances=distances.tolist(),
        monotone_prefix=int(np.sum(np.logical_and.accumulate(rising))),
        grew=bool(distances[-1] > distances[0]),
        trajectory=Trajectory(times, path[:, 0]),
        orbit_trajectory=Trajectory(times, path[:, 1]),
    )
