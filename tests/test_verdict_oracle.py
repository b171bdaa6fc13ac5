"""Verdict oracle: each experiment's exit code against the known truth of its claim.

The truth of every claim is known in closed form as a function of the flags: ``ges-check`` holds exactly when
``--rate`` <= 1/2, since f(r) + rate*r = r(rate - 1 + (sin r^2)/2) > 0 wherever sin r^2 > 2(1 - rate), and every
other claim holds at every accepted flag value.  A true claim must exit 0 (confirmed) or 2 (inconclusive, or a
numerical failure), a false one 1 or 2, and an artifact, when one is written, must be valid JSON whose
``confirmed`` matches the exit code; an exit 2 may write nothing.  Each flag that decides a verdict is drawn from
its whole accepted range, ``--horizon`` from (0, 5e4] included.  The cost-only flags, ``--periods`` and the grid
COUNT, stay small.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab import cli, counterexample
from contraction_lab.cli import _EXPERIMENTS, EXPERIMENTS, main

CONFIRMED = {0: True, 1: False, 2: None}

seeds = st.integers(min_value=0, max_value=2**64)
finite = st.floats(allow_nan=False, allow_infinity=False)
grids = st.tuples(finite, finite, st.integers(1, 40)).map(lambda g: f"--grid={min(g[:2])!r}:{max(g[:2])!r}:{g[2]}")


def assert_verdict(experiment: str, flags: list, true: bool):
    """Run ``experiment`` in-process into a fresh directory and check its exit code and artifact against ``true``."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", experiment, *flags, "--out", out])
        path = Path(out) / f"{experiment}.json"
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
    assert code in ((0, 2) if true else (1, 2)), f"run {experiment} {' '.join(flags)} exited {code}"
    assert doc is None and code == 2 or doc["confirmed"] is CONFIRMED[code]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    rate=st.one_of(st.floats(0.45, 0.55), st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
    horizon=st.floats(0, cli._MAX_HORIZON, exclude_min=True),
    seed=seeds,
)
def test_ges_check_holds_exactly_up_to_rate_one_half(rate, horizon, seed):
    assert_verdict("ges-check", [f"--rate={rate!r}", f"--horizon={horizon!r}", f"--seed={seed}"], rate <= 0.5)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    delta=st.floats(1e-7, counterexample._canonical_radius(), exclude_min=True).filter(cli._escapes),
    periods=st.integers(1, 3),
    fmt=st.sampled_from(["json", "both"]),
    seed=seeds,
)
def test_divergence_holds_across_the_escape_band(delta, periods, fmt, seed):
    flags = [f"--delta={delta!r}", f"--periods={periods}", f"--format={fmt}", f"--seed={seed}"]
    assert_verdict("divergence", flags, True)


@pytest.mark.parametrize("experiment", ["metric-certify", "metric-violate", "uniform-contraction"])
def test_region_claims_hold_on_every_grid(experiment):
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(grid=grids, seed=seeds)
    def holds(grid, seed):
        assert_verdict(experiment, [grid, f"--seed={seed}"], True)

    holds()


@pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if not _EXPERIMENTS[e][1]])
def test_flagless_claims_hold_at_every_seed(experiment):
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(seed=seeds)
    def holds(seed):
        assert_verdict(experiment, [f"--seed={seed}"], True)

    holds()
