"""Command-line front end: one named experiment per library claim.

Every experiment writes a machine-readable JSON verdict (UTF-8, newline
terminated, fixed key order, 17-significant-digit floats) and exits 0 only
when its claim is confirmed.  Exit codes: 0 confirmed, 1 claim refuted,
2 numerical failure or an inconclusive run (``"confirmed": null``), 64 usage
error.  Flag values are validated at parse time, so a bad value exits 64
before anything runs or is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import constant_metric, contraction, counterexample, entrainment, flowspace
from .certificates import dumps_fixed
from .dynamics import PeriodicInput, concat, integrate, shift_signal
from .errors import ContractionLabError, NoRootFoundError

# name -> (claim, {flag: default} for the flags taken beyond the common
# out/format/seed set, runner, whether it writes CSV), in the order the
# experiments are defined below.  A runner returns (confirmed, payload, csv
# writers), where confirmed is True, False, or None when the evidence decides
# neither way.
_EXPERIMENTS = {}


def _experiment(name: str, claim: str, writes_csv: bool = False, **defaults):
    def register(run):
        _EXPERIMENTS[name] = (claim, defaults, run, writes_csv)
        return run

    return register


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _flag(convert, ok, expected: str):
    """argparse type: ``convert`` the text and require ``ok`` of the value."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _split_grid(text: str):
    lo, hi, count = text.split(":")
    return float(lo), float(hi), int(count)


# Comparisons with NaN are false, so each check below also rejects NaN.
_positive = _flag(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_nonnegative = _flag(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_periods = _flag(int, lambda v: v >= 1, "an integer >= 1")
_seed = _flag(int, lambda v: v >= 0, "an integer >= 0")
_interval = _flag(
    lambda text: tuple(map(float, text.split(":"))),
    lambda v: len(v) == 2 and 0 < v[0] < v[1] < math.inf and counterexample._scan_fits(*v),
    f"LO:HI with 0 < LO < HI and a scan of at most {counterexample._SCAN_MAX_POINTS} points",
)
_grid_axis = _flag(
    _split_grid,
    lambda v: -math.inf < v[0] <= v[1] < math.inf and v[2] >= 1,
    "LO:HI:COUNT with finite LO <= HI and COUNT >= 1",
)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state on it, so every call starts from the defaults."""
    parser = _Parser(prog="contraction-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_rstar = sub.add_parser("find-rstar", help="certify the critical forcing radius")
    p_rstar.add_argument("--interval", type=_interval, default=(0.1, 4.0))
    p_rstar.add_argument("--tol", type=_positive, default=1e-13)
    p_rstar.add_argument("--out", default=None)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("experiment", choices=EXPERIMENTS)
    p_run.add_argument("--grid", type=_grid_axis, action="append", default=None)
    p_run.add_argument("--tol", type=_positive, default=None)
    p_run.add_argument("--horizon", type=_positive, default=None)
    p_run.add_argument("--periods", type=_periods, default=None)
    p_run.add_argument("--rate", type=_positive, default=None)
    p_run.add_argument("--delta", type=_nonnegative, default=None)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p_run.add_argument("--seed", type=_seed, default=0)

    p_rep = sub.add_parser("report", help="summarize experiment outputs")
    p_rep.add_argument("dir", nargs="?", default="out")
    return parser


def _check_params(parser, args) -> None:
    _, defaults, _, writes_csv = _EXPERIMENTS[args.experiment]
    if args.format == "csv" and not writes_csv:
        parser.error(f"experiment {args.experiment!r} writes no CSV; use --format json or both")
    for flag in ("grid", "tol", "horizon", "periods", "rate", "delta"):
        if getattr(args, flag) is None:
            setattr(args, flag, defaults.get(flag))
        elif flag not in defaults:
            parser.error(f"experiment {args.experiment!r} does not take --{flag}")
    if args.grid is not None and len(args.grid) > 1:
        parser.error(f"experiment {args.experiment!r} takes one --grid axis, got {len(args.grid)}")
    if args.delta is not None and not args.delta < (r_star := counterexample._canonical_radius()):
        parser.error(f"--delta must be below r_star = {r_star!r}, got {args.delta!r}")


@_experiment(
    "ges-check", "unforced trajectories decay at rate 1/2 and f(r) <= -r/2 on [0, 50]", rate=0.5, horizon=20.0
)
def _exp_ges_check(args):
    ics = counterexample.random_initial_conditions(100, 10.0, seed=args.seed)
    cert = counterexample.verify_ges(ics, args.horizon, args.rate)
    payload = {"rate": args.rate, "horizon": args.horizon, "certificate": cert.to_dict()}
    return bool(cert.holds), payload, []


@_experiment("circle-orbit", "the circle of radius r_star is an exact periodic trajectory of the forced system", tol=1e-10)
def _exp_circle_orbit(args):
    residual = counterexample.circle_orbit_residual(counterexample._canonical_radius(), 1000)
    return residual <= args.tol, {"residual": residual, "tolerance": args.tol, "samples": 1000}, []


@_experiment(
    "divergence",
    "a start just inside the forced orbit moves away from it and never returns",
    writes_csv=True,
    delta=0.1,
    periods=10,
)
def _exp_divergence(args):
    r_star = counterexample._canonical_radius()
    report = entrainment.counterexample_divergence(r_star, args.delta, args.periods)
    field, signal = counterexample.build_counterexample(r_star)
    verdict = entrainment.detect_entrainment(field, signal, [[r_star, 0.0], [r_star - args.delta, 0.0]])
    moved_away = (
        report.grew
        and report.distances[1] > report.distances[0]
        and report.monotone_prefix >= min(3, args.periods)
    )
    confirmed = bool(moved_away) and verdict.status == entrainment.DIVERGES
    if moved_away and verdict.status == entrainment.INCONCLUSIVE:
        # Near the saddle-node at r_star a start escapes slowly, and the
        # return-map iterates may neither converge nor double apart in time.
        confirmed = None
    payload = {
        "divergence": report.to_dict(),
        "verdict": verdict.status,
        "verdict_iterations": verdict.iterations,
    }

    def write_csvs(out_dir):
        report.export_csv(
            os.path.join(out_dir, "divergence_perturbed.csv"), os.path.join(out_dir, "divergence_orbit.csv")
        )

    return confirmed, payload, [write_csvs]


@_experiment("entrainment-linear", "x' = -x + sin t entrains with return-map fixed point -1/2", tol=1e-8)
def _exp_entrainment_linear(args):
    field = contraction.linear_additive_field(1)
    signal = PeriodicInput(2 * np.pi, lambda t: [np.sin(t)])
    verdict = entrainment.detect_entrainment(field, signal, [[-10.0], [0.0], [10.0]], 50, args.tol)
    confirmed = verdict.status == entrainment.ENTRAINS and abs(verdict.orbit_sample[0] + 0.5) <= 1e-8
    payload = {
        "verdict": verdict.status,
        "fixed_point": None if verdict.orbit_sample is None else float(verdict.orbit_sample[0]),
        "iterations": verdict.iterations,
    }
    return confirmed, payload, []


@_experiment(
    "metric-certify",
    "the oscillatory scalar system contracts in its stock metric at rate 1/3",
    grid=[(-20.0, 20.0, 40001)],
)
def _exp_metric_certify(args):
    field, metric = contraction.scalar_example_system()
    ((lo, hi, count),) = args.grid
    cert = contraction.check_contraction_region(field, metric, (lo, hi), count, 1.0 / 3.0, [0.0])
    xs = np.linspace(lo, hi, 10001)
    f, slope = counterexample.radial_f(xs), counterexample.radial_f_slope(xs)
    lhs = contraction.scalar_metric_derivative(xs) * f + 2 * slope * contraction.scalar_metric(xs)
    rhs = 4.0 / (np.sin(xs * xs) - 2.0)
    identity_err = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    confirmed = cert.holds and identity_err <= 1e-9
    return confirmed, {"certificate": cert.to_dict(), "identity_max_rel_err": identity_err}, []


@_experiment(
    "metric-violate",
    "constant input 27/16 breaks the scalar metric certificate near x = 4*sqrt(2*pi)",
    grid=[(-20.0, 20.0, 40001)],
)
def _exp_metric_violate(args):
    field, metric = contraction.scalar_example_system()
    c = 27.0 / 16.0
    x0 = 4.0 * np.sqrt(2.0 * np.pi)
    direct = contraction.contraction_matrix(field, metric, [x0], [c])[0, 0]
    closed = -2.0 + 13.5 * np.sqrt(2.0 * np.pi)
    ((lo, hi, count),) = args.grid
    wide = contraction.check_contraction_region(field, metric, (lo, hi), count, 1.0 / 3.0, [c])
    spacing = 1e-3
    window = contraction.check_contraction_region(
        field, metric, (x0 - 20 * spacing, x0 + spacing), 22, 1.0 / 3.0, [c]
    )
    witness_x = window.witness["x"][0]
    confirmed = (
        abs(direct - closed) <= 1e-9
        and not wide.holds
        and not window.holds
        and abs(witness_x - x0) <= spacing
    )
    payload = {
        "closed_form_value": closed,
        "direct_value": float(direct),
        "wide_certificate": wide.to_dict(),
        "window_certificate": window.to_dict(),
        "paper_point": x0,
    }
    return confirmed, payload, []


@_experiment(
    "uniform-contraction",
    "x' = -x + u contracts uniformly over |u| <= 1 in the non-constant bump metric",
    # |x| <= 10 sqrt(m) for the m = 2 that bounded_metric_m_parameter(1.0) returns
    grid=[(-10.0 * math.sqrt(2.0), 10.0 * math.sqrt(2.0), 2001)],
)
def _exp_uniform_contraction(args):
    m, m_cert = contraction.bounded_metric_m_parameter(1.0)
    metric = contraction.bounded_example_metric(m)
    field = contraction.linear_additive_field(1)
    ((lo, hi, count),) = args.grid
    cert = contraction.check_uniform_contraction(field, metric, (-1.0, 1.0), 5, (lo, hi), count, 1.0)
    payload = {"m": m, "bound_certificate": m_cert.to_dict(), "certificate": cert.to_dict()}
    return bool(cert.holds), payload, []


@_experiment("bounded-metric", "a non-constant metric certifies contraction for all inputs bounded by 1")
def _exp_bounded_metric(args):
    m, cert = contraction.bounded_metric_m_parameter(1.0)
    metric = contraction.bounded_example_metric(m)
    grad = metric.grad([np.sqrt(m)])[0, 0, 0]
    confirmed = cert.holds and abs(grad) > 1e-3
    payload = {"m": m, "certificate": cert.to_dict(), "gradient_at_sqrt_m": float(grad)}
    return confirmed, payload, []


def _thm3_common(field, family, directions):
    inradius = constant_metric.polytope_inradius(directions)
    report = constant_metric.check_constant_metric_conditions(
        field, family, [[0.0, 0.0, 0.0], [0.05, -0.05, 0.05]], inradius / 2.0
    )
    payload = {"inradius": inradius, "rho": inradius / 2.0, "report": report.to_dict()}
    return report.certified, payload, []


@_experiment("thm3-example1", "the diagonal 3-D example satisfies both constancy-forcing conditions")
def _exp_thm3_example1(args):
    field, family = constant_metric.example_3d_system()
    dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, -1.0, -1.0] / np.sqrt(3)])
    return _thm3_common(field, family, dirs)


@_experiment("thm3-example2", "the additive simplex example satisfies both constancy-forcing conditions")
def _exp_thm3_example2(args):
    field, family = constant_metric.example_additive_3d()
    return _thm3_common(field, family, constant_metric.simplex_directions(3))


@_experiment("flow-compose", "flow maps compose along concatenated signals and commute with time shifts")
def _exp_flow_compose(args):
    field = counterexample.circle_field()
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(5):
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = t1 + float(rng.uniform(0.3, 1.5))
        t3 = t2 + float(rng.uniform(0.3, 1.5))
        x0 = rng.uniform(-2.0, 2.0, size=2)
        a1, a2 = rng.uniform(0.2, 1.5, size=2)
        u = PeriodicInput(2 * np.pi, lambda t, a=a1: [a * np.sin(t), a * np.cos(t)])
        v = PeriodicInput(2 * np.pi, lambda t, a=a2: [a * np.cos(2 * t), 0.0])
        # flow property: one un-segmented run against a restart at t2
        stopover = integrate(field, u, x0, (t1, t2)).final_state
        via = integrate(field, u, stopover, (t2, t3)).final_state
        direct = integrate(field, u, x0, (t1, t3)).final_state
        worst = max(worst, float(np.linalg.norm(via - direct)))
        # concatenation: switching to v at t2 equals running the glued signal
        via_v = integrate(field, v, stopover, (t2, t3)).final_state
        glued = integrate(field, concat(u, v, t2), x0, (t1, t3)).final_state
        worst = max(worst, float(np.linalg.norm(via_v - glued)))
        shift = float(rng.uniform(-3.0, 3.0))
        shifted = integrate(field, shift_signal(u, shift), x0, (t1 - shift, t2 - shift)).final_state
        worst = max(worst, float(np.linalg.norm(shifted - stopover)))
    return worst <= 1e-7, {"max_deviation": worst, "tolerance": 1e-7}, []


@_experiment("flow-limit", "schedule contraction passes to the limit signal through dyadic refinement")
def _exp_flow_limit(args):
    flow = flowspace.flow_from_field(contraction.linear_additive_field(1))
    target = PeriodicInput(2 * np.pi, lambda t: [float(np.clip(np.sin(t), -1.0, 1.0))])
    cert = flowspace.check_limit_contraction(
        flow, (-1.0, 1.0), -1.0, target, 8, [([-2.0], [2.0]), ([0.5], [1.5])], (0.0, 2 * np.pi)
    )
    return bool(cert.holds), {"certificate": cert.to_dict()}, []


EXPERIMENTS = tuple(_EXPERIMENTS)


_EXIT_CODES = {True: 0, False: 1, None: 2}
_VERDICTS = {True: "confirmed", False: "REFUTED", None: "INCONCLUSIVE"}
_REPORT_VERDICTS = {True: "pass", False: "FAIL", None: "inconclusive"}


def _conclude(doc: dict, text: str, out_dir, fmt: str = "json", csvs=()) -> int:
    """Write ``doc`` as ``text`` under ``out_dir`` unless it is None; exit 0
    confirmed, 1 refuted, 2 inconclusive or unwritable."""
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            if fmt in ("json", "both"):
                with open(os.path.join(out_dir, f"{doc['experiment']}.json"), "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            if fmt in ("csv", "both"):
                for write_csvs in csvs:
                    write_csvs(out_dir)
        except OSError as exc:
            print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
            return 2
    return _EXIT_CODES[doc["confirmed"]]


def _cmd_find_rstar(args) -> int:
    try:
        cert = counterexample.find_r_star(args.interval, args.tol)
    except NoRootFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(cert.to_json())
    try:
        cert.validate()
    except ValueError as exc:
        print(f"certificate invariants violated: {exc}", file=sys.stderr)
        confirmed = False
    else:
        confirmed = True
    doc = {
        "experiment": "find-rstar",
        "claim": "a strict local maximizer of the radial drift exists in the interval",
        "confirmed": confirmed,
        "certificate": cert.to_dict(),
    }
    return _conclude(doc, dumps_fixed(doc), args.out)


def _cmd_run(parser, args) -> int:
    _check_params(parser, args)
    claim, _, run, _ = _EXPERIMENTS[args.experiment]
    try:
        confirmed, payload, csvs = run(args)
    except ContractionLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    confirmed = None if confirmed is None else bool(confirmed)
    doc = {"experiment": args.experiment, "claim": claim, "confirmed": confirmed, "seed": args.seed, **payload}
    try:
        text = dumps_fixed(doc)  # before the verdict line: a non-finite value gets no verdict
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"{args.experiment}: {_VERDICTS[confirmed]} -- {claim}")
    return _conclude(doc, text, args.out, args.format, csvs)


def _artifact_fields(doc) -> tuple:
    """(experiment, claim, confirmed) of an artifact; TypeError if mistyped.

    ``confirmed`` is a boolean, or None for an inconclusive run."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    experiment, claim, confirmed = doc["experiment"], doc["claim"], doc["confirmed"]
    if not (isinstance(experiment, str) and isinstance(claim, str) and (confirmed is None or isinstance(confirmed, bool))):
        raise TypeError("'experiment' and 'claim' must be strings and 'confirmed' a boolean or null")
    return experiment, claim, confirmed


def _cmd_report(args) -> int:
    if not os.path.isdir(args.dir):
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 2
    rows = []
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(args.dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            experiment, claim, confirmed = _artifact_fields(doc)
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError, OSError) as exc:
            print(f"error: unreadable output {path}: {exc}", file=sys.stderr)
            return 2
        rows.append((experiment, _REPORT_VERDICTS[confirmed], claim))
    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'experiment':<{width}}  {'verdict':<12}  claim")
    for experiment, verdict, claim in rows:
        print(f"{experiment:<{width}}  {verdict:<12}  {claim}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "find-rstar":
            return _cmd_find_rstar(args)
        if args.command == "run":
            return _cmd_run(parser, args)
        return _cmd_report(args)
    except SystemExit as exc:  # argparse exits, while parsing or from a command's own checks
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
