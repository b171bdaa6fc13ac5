"""The four verdict workloads: job generators and their scoring.

A job is one call into a public checker of ``contraction_lab`` that returns a
certificate or verdict.  ``Workload.round(rng, tiny)`` builds one round of
jobs from a seeded generator; every reference a job is scored against is
computed there, before the round is timed.  A job's ``score`` returns
``(verdict_ok, deviation / tolerance)``; the job fails when it raises, when
the verdict is wrong, or when the ratio exceeds 1.

Each round holds a fixed number of jobs of each kind, so rounds of one
workload cost about the same whatever the seed.  Some jobs are the paper's
fixed instances (the forced orbit from (r*, 0), the 27/16 value at
4 sqrt(2 pi), x' = -x + sin t from -10, 0, 10); their deviation from the
reference is the largest of the round, which keeps ``ref_err`` the same
from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import contraction_lab as cl
from contraction_lab import cli

import oracles

TWO_PI = 2.0 * math.pi


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    score: Callable[[object], tuple]


def _ratio_err(entries, rays):
    """Worst constancy-report ratio against 1/||f||, in units of 1e-9."""
    return max(oracles.relative_error(e["max_ratio"], oracles.field_ratio(e["x"], e["i"], rays)) for e in entries) / 1e-9


def _pairs(rng, count):
    """Seeded distinct scalar point pairs (x < 0 < y)."""
    return [(float(rng.uniform(-3.0, 0.0)), float(rng.uniform(0.5, 3.0))) for _ in range(count)]


def _stratified_disk(rng, count, radius):
    """``count`` starts in the disk, one per equal-area annulus, random angle.

    Integration cost grows with the start radius, so stratifying the radius
    keeps every batch equally expensive.
    """
    r = radius * np.sqrt((np.arange(count) + rng.uniform(0.01, 1.0, size=count)) / count)
    theta = rng.uniform(0.0, TWO_PI, size=count)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


class GesSweep:
    """Long smooth integrations: ``verify_ges`` batches and forced-orbit probes."""

    name = "ges-sweep"

    def __init__(self, ctx, workdir):
        self.r_star = ctx.r_star
        self.field, self.forcing = ctx.forced

    # A 3-start batch costs about as much as a 10-period orbit probe, so the
    # round's jobs form one group and the median latency sits in its middle.
    def round(self, rng, tiny):
        starts, batches, periods = (3, 4, 1) if tiny else (3, 4, 10)
        jobs = [self._ges(_stratified_disk(rng, starts, 10.0)) for _ in range(batches)]
        jobs.append(self._orbit(periods))
        return jobs

    def _ges(self, starts):
        def score(cert):
            return bool(cert.holds), max(cert.margin, 0.0) / 1e-9

        return Job("verify-ges", lambda: cl.verify_ges(starts, 20.0, 0.5), score)

    def _orbit(self, periods):
        r = self.r_star

        def call():
            return cl.integrate(self.field, self.forcing, [r, 0.0], (0.0, periods * TWO_PI))

        return Job("forced-orbit", call, lambda traj: (True, oracles.circle_deviation(traj.states, r) / 1e-6))


def product_bump_metric(m, dim=2):
    """diag(1 + exp(-x_i^2/m)) with its analytic entrywise gradient."""

    def evaluate(x):
        return np.diag(1.0 + np.exp(-x * x / m))

    def gradient(x):
        g = np.zeros((dim, dim, dim))
        idx = np.arange(dim)
        g[idx, idx, idx] = -2.0 * x / m * np.exp(-x * x / m)
        return g

    return cl.RiemannianMetric(dim, evaluate, gradient, lower_bound=1.0, name="product bump metric")


class MetricGrid:
    """Grid certificates and metric searches, with no integration at all."""

    name = "metric-grid"
    SPACING = 1e-3

    def __init__(self, ctx, workdir):
        self.field, self.metric = ctx.scalar
        self.m = ctx.m
        self.field2 = cl.linear_additive_field(2)
        self.metric2 = product_bump_metric(ctx.m)
        diag_field, diag_family = cl.example_3d_system()
        simplex_field, simplex_family = cl.example_additive_3d()
        self.thm3 = {
            "thm3-diagonal": (diag_field, diag_family, oracles.DIAGONAL_RAYS, oracles.simplex_inradius(oracles.DIAGONAL_HULL)),
            "thm3-simplex": (simplex_field, simplex_family, oracles.SIMPLEX_RAYS, oracles.simplex_inradius(oracles.SIMPLEX_RAYS)),
        }

    # Three short jobs (the constancy checks and the 1-D search), three 4001-point
    # regions, three longer ones: the median latency is the middle region job.
    def round(self, rng, tiny):
        width, grid2 = (0.2, 9) if tiny else (4.0, 41)
        jobs = [
            self._region(float(rng.uniform(-20.0, 20.0 - width)), 0.0, width),
            self._region(float(rng.uniform(-20.0, 20.0 - width)), float(rng.uniform(-2.0, 2.0)), width),
            self._refutation(oracles.PAPER_POINT - width * float(rng.uniform(0.05, 0.95)), width),
            self._uniform_2d(grid2),
            self._violate_1d(float(rng.uniform(-10.0, 5.0)), int(rng.integers(2**31))),
            self._violate_2d(rng.uniform(-3.0, 1.0, size=2), int(rng.integers(2**31))),
            self._violate_2d(rng.uniform(-3.0, 1.0, size=2), int(rng.integers(2**31))),
        ]
        for kind in self.thm3:
            jobs.append(self._thm3(kind, rng.uniform(-0.05, 0.05, size=(2, 3))))
        return jobs

    def _count(self, width):
        return int(round(width / self.SPACING)) + 1

    def _region(self, lo, c, width):
        count = self._count(width)
        ref = float(np.max(oracles.scalar_value(np.linspace(lo, lo + width, count), c, 1.0 / 3.0)))

        def call():
            return cl.check_contraction_region(self.field, self.metric, (lo, lo + width), count, 1.0 / 3.0, [c])

        def score(cert):
            return cert.holds == (ref <= 0.0), oracles.relative_error(cert.margin, ref) / 1e-9

        return Job("scalar-region", call, score)

    def _refutation(self, lo, width):
        count = self._count(width)
        c = oracles.PAPER_INPUT
        ref = float(np.max(oracles.scalar_value(np.linspace(lo, lo + width, count), c, 1.0 / 3.0)))

        def call():
            cert = cl.check_contraction_region(self.field, self.metric, (lo, lo + width), count, 1.0 / 3.0, [c])
            direct = cl.contraction_matrix(self.field, self.metric, [oracles.PAPER_POINT], [c])[0, 0]
            return cert, direct

        def score(result):
            cert, direct = result
            grid_err = oracles.relative_error(cert.margin, ref) / 1e-9
            paper_err = abs(direct - oracles.PAPER_VIOLATION) / 1e-9
            return (not cert.holds) and ref > 0.0, max(grid_err, paper_err)

        return Job("refute-27/16", call, score)

    def _uniform_2d(self, count):
        half = 10.0 * math.sqrt(self.m)
        xs = np.linspace(-half, half, count)
        ref = float(np.max(oracles.bump_value(xs[:, None], np.linspace(-1.0, 1.0, 3)[None, :], self.m, 1.0)))

        def call():
            return cl.check_uniform_contraction(
                self.field2, self.metric2, [(-1.0, 1.0), (-1.0, 1.0)], 3, [(-half, half), (-half, half)], count, 1.0
            )

        def score(cert):
            return cert.holds == (ref <= 0.0), oracles.relative_error(cert.margin, ref) / 1e-9

        return Job("uniform-2d", call, score)

    def _violate_1d(self, lo, seed):
        def score(v):
            ref = float(v.z[0] ** 2 * oracles.scalar_value(v.x[0], v.c[0], 0.0))
            return v.value > 0.0, oracles.relative_error(v.value, ref) / 1e-9

        return Job("violate-1d", lambda: cl.find_violating_input(self.field, self.metric, (lo, lo + 5.0), seed=seed), score)

    def _violate_2d(self, lo, seed):
        box = [(float(a), float(a) + 2.0) for a in lo]

        def score(v):
            ref = float(np.sum(v.z**2 * oracles.bump_value(v.x, v.c, self.m, 0.0)))
            return v.value > 0.0, oracles.relative_error(v.value, ref) / 1e-9

        return Job("violate-2d", lambda: cl.find_violating_input(self.field2, self.metric2, box, seed=seed), score)

    def _thm3(self, kind, points):
        field, family, rays, inradius = self.thm3[kind]

        def score(report):
            return bool(report.certified), _ratio_err(report.entries, rays)

        return Job(kind, lambda: cl.check_constant_metric_conditions(field, family, points, inradius / 2.0), score)


class SwitchedFlow:
    """Many short segments and one-period return maps through the same integrator."""

    name = "switched-flow"
    # Phases off the quarter periods trip the library's Cauchy-halving test at
    # coarse dyadic levels (ApproximationNotConvergingError), so targets use
    # quarter-period phases only; see perfbench/README.md.
    # Eight schedules a round, 2 to 64 pieces over a span of 2: a schedule's
    # cost follows its piece count and span, so fixing both puts the round's
    # median latency between the 38- and 47-piece jobs whatever the seed.
    PIECES = (2, 11, 20, 29, 38, 47, 55, 64)
    SPAN = 2.0

    def __init__(self, ctx, workdir):
        self.r_star = ctx.r_star
        self.forced = ctx.forced
        self.field = cl.linear_additive_field(1)
        self.flow = cl.flow_from_field(self.field)

    def round(self, rng, tiny):
        levels, pieces = (3, self.PIECES[:1]) if tiny else (8, self.PIECES)
        jobs = [self._limit(float(rng.uniform(0.2, 1.0)), 0.5 * math.pi * int(rng.integers(4)), _pairs(rng, 2), levels)]
        jobs += [self._piecewise(rng, count) for count in pieces]
        jobs.append(self._entrain(1.0, [-10.0, 0.0, 10.0]))
        jobs.append(self._entrain(float(rng.uniform(0.2, 0.8)), sorted(rng.uniform(-10.0, 10.0, size=3))))
        jobs.append(self._diverge(float(rng.uniform(0.05, 0.2))))
        return jobs

    def _limit(self, a, phase, pairs, levels):
        target = cl.PeriodicInput(TWO_PI, lambda t: [a * math.sin(t + phase)])
        ref = oracles.worst_ratio(lambda x: oracles.linear_flow_sine(x, a, phase, 0.0, TWO_PI), pairs)
        pts = [([x], [y]) for x, y in pairs]

        def call():
            return cl.check_limit_contraction(self.flow, (-1.0, 1.0), -1.0, target, levels, pts, (0.0, TWO_PI))

        return Job("limit-contraction", call, lambda cert: (bool(cert.holds), abs(cert.margin - ref) / (1e-6 * ref)))

    def _piecewise(self, rng, pieces):
        values = rng.uniform(-1.0, 1.0, size=pieces)
        fractions = rng.uniform(0.5, 1.5, size=pieces)
        fractions /= fractions.sum()
        t1 = float(rng.uniform(0.0, 1.0))
        t2 = t1 + self.SPAN
        schedule = cl.PiecewiseSchedule(values, fractions, t1, t2)
        pairs = _pairs(rng, 2)
        ref = oracles.worst_ratio(lambda x: oracles.linear_flow_pieces(x, values, fractions, t1, t2), pairs)
        pts = [([x], [y]) for x, y in pairs]

        def call():
            return cl.check_piecewise_contraction(self.flow, (-1.0, 1.0), -1.0, schedule, pts)

        return Job("piecewise-contraction", call, lambda cert: (bool(cert.holds), abs(cert.margin - ref) / (1e-6 * ref)))

    def _entrain(self, a, starts):
        signal = cl.PeriodicInput(TWO_PI, lambda t: [a * math.sin(t)])
        ref = oracles.entrainment_fixed_point(a)

        def score(verdict):
            if verdict.status != "entrains":
                return False, 0.0
            return True, abs(float(verdict.orbit_sample[0]) - ref) / 1e-8

        return Job("entrains", lambda: cl.detect_entrainment(self.field, signal, [[x] for x in starts]), score)

    def _diverge(self, delta):
        field, signal = self.forced
        starts = [[self.r_star, 0.0], [self.r_star - delta, 0.0]]
        return Job("diverges", lambda: cl.detect_entrainment(field, signal, starts), lambda v: (v.status == "diverges", 0.0))


EXPERIMENTS = (
    "ges-check",
    "circle-orbit",
    "divergence",
    "entrainment-linear",
    "metric-certify",
    "metric-violate",
    "uniform-contraction",
    "bounded-metric",
    "thm3-example1",
    "thm3-example2",
    "flow-compose",
    "flow-limit",
)

# Smaller sizes for the experiments that take a size flag; used for warm-up
# and for the smoke test.  Everything else always runs at its defaults.
TINY_GRIDS = {"metric-certify": (-2.0, 2.0, 401), "metric-violate": (9.0, 11.0, 201), "uniform-contraction": (-2.0, 2.0, 41)}
TINY_FLAGS = {
    "ges-check": ["--horizon", "0.25"],
    "divergence": ["--periods", "3"],
    **{exp: [f"--grid={lo:g}:{hi:g}:{count}"] for exp, (lo, hi, count) in TINY_GRIDS.items()},
}
DEFAULT_GRIDS = {"metric-certify": (-20.0, 20.0, 40001), "metric-violate": (-20.0, 20.0, 40001)}


def _grid(exp, tiny):
    return TINY_GRIDS.get(exp) if tiny else DEFAULT_GRIDS.get(exp)


def _cert_err(cert, ref):
    return oracles.relative_error(cert["margin"], ref) / 1e-9




class CliClaims:
    """``contraction_lab.cli.main`` in-process for every claim, plus ``report``."""

    name = "cli-claims"

    def __init__(self, ctx, workdir):
        self.workdir = workdir
        self.calls = 0

    def round(self, rng, tiny):
        self.calls += 1
        out = os.path.join(self.workdir, f"cli-{self.calls}")
        refute_out = os.path.join(out, "refute")
        seed = str(int(rng.integers(2**31)))
        jobs = [self._job("find-rstar", ["find-rstar", "--out", out], 0, os.path.join(out, "find-rstar.json"), self._check_rstar)]
        for exp in EXPERIMENTS:
            argv = ["run", exp, "--seed", seed, "--out", out] + (TINY_FLAGS.get(exp, []) if tiny else [])
            check = self._checker(exp, _grid(exp, tiny))
            jobs.append(self._job(exp, argv, 0, os.path.join(out, f"{exp}.json"), check))
        argv = ["run", "ges-check", "--rate", "0.6", "--seed", seed, "--out", refute_out]
        jobs.append(self._job("ges-check-0.6", argv, 1, os.path.join(refute_out, "ges-check.json"), self._check_refuted))
        jobs.append(self._job("report", ["report", out], 0, None, self._check_report))
        return jobs

    @staticmethod
    def _job(kind, argv, expected_rc, artifact, check):
        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            return rc, sink.getvalue()

        def score(result):
            rc, text = result
            if rc != expected_rc:
                return False, 0.0
            if artifact is None:
                return check(text)
            with open(artifact, encoding="utf-8") as fh:
                doc = json.loads(fh.read())
            ok, err = check(doc)
            return ok and doc["confirmed"] == (expected_rc == 0), err

        return Job(kind, call, score)

    @staticmethod
    def _check_rstar(doc):
        return True, abs(doc["certificate"]["r_star"] - oracles.R_STAR_PRINTED) / 1e-10

    @staticmethod
    def _check_refuted(doc):
        cert = doc["certificate"]
        return (not cert["holds"]) and cert["margin"] > 0.0, _cert_err(cert, oracles.ges_generator_margin(0.6))

    @staticmethod
    def _check_report(text):
        rows = {line.split()[0]: line.split()[1] for line in text.splitlines()[1:] if line.strip()}
        expected = set(EXPERIMENTS) | {"find-rstar"}
        return set(rows) == expected and all(v == "pass" for v in rows.values()), 0.0

    @staticmethod
    def _checker(exp, grid):
        if exp == "ges-check":
            return lambda d: (d["certificate"]["holds"], max(d["certificate"]["margin"], 0.0) / 1e-9)
        if exp == "circle-orbit":
            return lambda d: (True, d["residual"] / 1e-10)
        if exp == "divergence":
            return lambda d: (d["verdict"] == "diverges", 0.0)
        if exp == "entrainment-linear":
            return lambda d: (d["verdict"] == "entrains", abs(d["fixed_point"] - oracles.entrainment_fixed_point(1.0)) / 1e-8)
        if exp == "metric-certify":
            ref = float(np.max(oracles.scalar_value(np.linspace(*grid), 0.0, 1.0 / 3.0)))
            return lambda d: (d["certificate"]["holds"], max(_cert_err(d["certificate"], ref), d["identity_max_rel_err"] / 1e-9))
        if exp == "metric-violate":
            ref = float(np.max(oracles.scalar_value(np.linspace(*grid), oracles.PAPER_INPUT, 1.0 / 3.0)))

            def check(d):
                paper = max(abs(d[k] - oracles.PAPER_VIOLATION) for k in ("direct_value", "closed_form_value")) / 1e-9
                return not d["wide_certificate"]["holds"], max(paper, _cert_err(d["wide_certificate"], ref))

            return check
        if exp == "uniform-contraction":

            def check(d):
                m = d["m"]
                lo, hi, count = grid if grid else (-10.0 * math.sqrt(m), 10.0 * math.sqrt(m), 2001)
                xs = np.linspace(lo, hi, count)[:, None]
                ref = float(np.max(oracles.bump_value(xs, np.linspace(-1.0, 1.0, 5)[None, :], m, 1.0)))
                bound = _cert_err(d["bound_certificate"], oracles.bounded_metric_margin(m, 1.0))
                return d["certificate"]["holds"], max(_cert_err(d["certificate"], ref), bound)

            return check
        if exp == "bounded-metric":
            return lambda d: (d["certificate"]["holds"], _cert_err(d["certificate"], oracles.bounded_metric_margin(d["m"], 1.0)))
        if exp == "thm3-example1":
            return lambda d: (d["report"]["certified"], _ratio_err(d["report"]["entries"], oracles.DIAGONAL_RAYS))
        if exp == "thm3-example2":
            return lambda d: (d["report"]["certified"], _ratio_err(d["report"]["entries"], oracles.SIMPLEX_RAYS))
        if exp == "flow-compose":
            return lambda d: (True, d["max_deviation"] / 1e-7)
        if exp == "flow-limit":
            pairs = [(-2.0, 2.0), (0.5, 1.5)]
            ref = oracles.worst_ratio(lambda x: oracles.linear_flow_sine(x, 1.0, 0.0, 0.0, TWO_PI), pairs)
            return lambda d: (d["certificate"]["holds"], abs(d["certificate"]["margin"] - ref) / (1e-6 * ref))
        raise KeyError(exp)


WORKLOADS = {w.name: w for w in (GesSweep, MetricGrid, SwitchedFlow, CliClaims)}
