"""Command-line front end: one named experiment per library claim.

Every experiment writes a machine-readable JSON verdict (UTF-8, newline
terminated, fixed key order, 17-significant-digit floats) and exits 0 only
when its claim is confirmed.  Exit codes: 0 confirmed, 1 claim refuted,
2 numerical failure or an inconclusive run (``"confirmed": null``), 64 usage
error.  Each experiment's ``run`` sub-parser refuses a flag it does not take,
a flag given twice or a bad value (exit 64) before anything runs or is written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import constant_metric, contraction, counterexample, entrainment, flowspace
from .certificates import dumps_fixed
from .dynamics import IntegratorConfig, PeriodicInput, concat, integrate
from .errors import ContractionLabError, NoRootFoundError

# name -> (claim, {flag: default} for the flags taken beside --out and --seed, runner), in the order the
# experiments are defined below.  The claim is a template filled from the parsed flags.  A runner returns
# (confirmed, payload, csv writers), where confirmed is True, False, or None when the evidence decides neither way.
_EXPERIMENTS = {}


def _experiment(name: str, claim: str, **defaults):
    def register(run):
        _EXPERIMENTS[name] = (claim, defaults, run)
        return run

    return register


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # A flag before EXPERIMENT would leave its value to be read as the experiment's name.
        if self.prog.endswith(" run") and args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            self.error(f"{args[0]} goes after EXPERIMENT: {self.prog} EXPERIMENT {args[0]} ...")
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:  # refused by the parser that owns the command, under its own usage
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

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


def _escapes(delta: float) -> bool:
    # The start r_star - delta must lie in the escape band of DivergenceReport, where the radial drift f is below
    # f(r_star): above 0 (tested first, so f cannot overflow), above the rest radius 1.6749 and off the orbit. It must
    # also lie beyond the detector's merge distance 10 * 1e-8, or one return map reads as entrainment.
    f, r_star = counterexample.radial_f, counterexample._canonical_radius()
    return 1e-7 < delta < r_star and f(r_star - delta) < f(r_star)


class _Once(argparse.Action):
    """Store the value; refuse a flag given twice, by name, since a value may equal its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given", set())
        if self.dest in given:
            parser.error(f"{option_string} given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


# A run at either cap peaks within the 222 MB ru_maxrss of a million-point
# grid: ges-check stores about 0.22 steps per unit of horizon and divergence
# about 4 steps per period (34 MB at 2000 periods, 91 MB at horizon 5e4).
_MAX_HORIZON = 5e4
_MAX_PERIODS = 2000

# Comparisons with NaN are false, so each check below also rejects NaN.
_positive = _flag(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_horizon = _flag(float, lambda v: 0 < v <= _MAX_HORIZON, f"a number in (0, {_MAX_HORIZON:g}]")
_periods = _flag(int, lambda v: 1 <= v <= _MAX_PERIODS, f"an integer in [1, {_MAX_PERIODS}]")
_seed = _flag(int, lambda v: v >= 0, "an integer >= 0")
_interval = _flag(
    lambda text: tuple(map(float, text.split(":"))),
    lambda v: len(v) == 2 and 0 < v[0] < v[1] < math.inf and counterexample._scan_fits(*v),
    f"LO:HI with 0 < LO < HI and a scan of at most {counterexample._SCAN_MAX_POINTS} points",
)
_grid = _flag(
    _split_grid,
    lambda v: -math.inf < v[0] <= v[1] < math.inf and 1 <= v[2] <= counterexample._SCAN_MAX_POINTS,
    f"LO:HI:COUNT with finite LO <= HI and 1 <= COUNT <= {counterexample._SCAN_MAX_POINTS}",
)
_delta = _flag(float, _escapes, "a number > 1e-7 with f(r_star - delta) < f(r_star)")
_FLAG_TYPES = {"grid": _grid, "horizon": _horizon, "periods": _periods, "rate": _positive, "delta": _delta,
               "format": _flag(str, ("json", "both").__contains__, "json or both")}


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state on it, so every call starts from the defaults."""
    parser = _Parser(prog="contraction-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rstar = sub.add_parser("find-rstar", help="certify the critical forcing radius")
    p_rstar.add_argument("--interval", type=_interval, default=(0.1, 4.0), action=_Once)
    p_rstar.add_argument("--out", default=None, action=_Once)

    p_run = sub.add_parser("run", help="run a named experiment")
    experiments = p_run.add_subparsers(dest="experiment", metavar="EXPERIMENT", required=True)
    for name, (claim, defaults, _) in _EXPERIMENTS.items():
        p_exp = experiments.add_parser(name, help=claim.format_map(defaults))
        for flag, default in defaults.items():
            p_exp.add_argument(f"--{flag}", type=_FLAG_TYPES[flag], default=default, action=_Once)
        p_exp.add_argument("--out", default="out", action=_Once)
        p_exp.add_argument("--seed", type=_seed, default=0, action=_Once)

    p_rep = sub.add_parser("report", help="summarize experiment outputs")
    p_rep.add_argument("dir", nargs="?", default="out")
    return parser


@_experiment(
    "ges-check",
    "unforced trajectories decay at rate {rate!r} and f(r) + {rate!r}*r <= 0 on the scan grid of [0, 50]",
    rate=0.5,
    horizon=20.0,
)
def _exp_ges_check(args):
    ics = counterexample.random_initial_conditions(100, 10.0, seed=args.seed)
    cert = counterexample.verify_ges(ics, args.horizon, args.rate)
    payload = {"rate": args.rate, "horizon": args.horizon, "certificate": cert.to_dict()}
    # The claim is false at every rate above 1/2: f(r) + rate*r > 0 wherever sin r^2 > 2(1 - rate).
    # Just above 1/2 that set is thin enough to fall between the scan points, so a scan that holds decides nothing.
    return None if cert.holds and args.rate > 0.5 else bool(cert.holds), payload, []


@_experiment("circle-orbit", "the circle of radius r_star is an exact periodic trajectory of the forced system")
def _exp_circle_orbit(args):
    residual = counterexample.circle_orbit_residual(counterexample._canonical_radius(), 1000)
    return residual <= 1e-10, {"residual": residual, "tolerance": 1e-10, "samples": 1000}, []


@_experiment(
    "divergence", "a start just inside the forced orbit moves away from it and never returns",
    delta=0.1, periods=10, format="json",
)
def _exp_divergence(args):
    r_star = counterexample._canonical_radius()
    report = entrainment.counterexample_divergence(r_star, args.delta, args.periods)
    field, signal = counterexample.rotating_frame_counterexample(r_star)
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

    return confirmed, payload, [write_csvs] if args.format == "both" else []


@_experiment("entrainment-linear", "x' = -x + sin t entrains with return-map fixed point -1/2")
def _exp_entrainment_linear(args):
    field = contraction.linear_additive_field(1)
    signal = PeriodicInput(2 * np.pi, lambda t: [math.sin(t)])
    verdict = entrainment.detect_entrainment(field, signal, [[-10.0], [0.0], [10.0]])
    # A fixed point within the detector's 1e-8 of -1/2 confirms; divergence or any other fixed point refutes.
    entrains = verdict.status == entrainment.ENTRAINS and abs(verdict.orbit_sample[0] + 0.5) <= 1e-8
    confirmed = None if verdict.status == entrainment.INCONCLUSIVE else entrains
    payload = {
        "verdict": verdict.status,
        "fixed_point": None if verdict.orbit_sample is None else float(verdict.orbit_sample[0]),
        "iterations": verdict.iterations,
    }
    return confirmed, payload, []


@_experiment(
    "metric-certify",
    "the oscillatory scalar system contracts in its stock metric at rate 1/3",
    grid=(-20.0, 20.0, 40001),
)
def _exp_metric_certify(args):
    field, metric = contraction.scalar_example_system()
    lo, hi, count = args.grid
    cert = contraction.check_contraction_region(field, metric, (lo, hi), count, 1.0 / 3.0, [0.0])
    xs = np.linspace(lo, hi, 10001)
    f, slope = counterexample.radial_f(xs), counterexample.radial_f_slope(xs)
    lhs = contraction.scalar_metric_derivative(xs) * f + 2 * slope * contraction.scalar_metric(xs)
    rhs = 4.0 / (np.sin(xs * xs) - 2.0)
    identity_err = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    # lhs (|lhs| <= 4) and the margin lhs + M/3 cancel x^2-sized terms: rounding moves them by a few eps*x^2.
    noise = 16 * np.finfo(float).eps * max(lo * lo, hi * hi)
    unresolved = cert.margin <= 4 * noise and identity_err <= max(1e-9, noise)  # a failure within rounding
    confirmed = (cert.holds and identity_err <= 1e-9) or (None if unresolved else False)
    return confirmed, {"certificate": cert.to_dict(), "identity_max_rel_err": identity_err}, []


@_experiment(
    "metric-violate",
    "constant input 27/16 breaks the scalar metric certificate near x = 4*sqrt(2*pi)",
    grid=(-20.0, 20.0, 40001),
)
def _exp_metric_violate(args):
    field, metric = contraction.scalar_example_system()
    c = 27.0 / 16.0
    x0 = 4.0 * np.sqrt(2.0 * np.pi)
    direct = contraction.contraction_matrix(field, metric, [x0], [c])[0, 0]
    closed = -2.0 + 13.5 * np.sqrt(2.0 * np.pi)
    lo, hi, count = args.grid
    wide = contraction.check_contraction_region(field, metric, (lo, hi), count, 1.0 / 3.0, [c])
    spacing = 1e-3
    window = contraction.check_contraction_region(
        field, metric, (x0 - 20 * spacing, x0 + spacing), 22, 1.0 / 3.0, [c]
    )
    witness_x = window.witness["x"][0]
    confirmed = (
        abs(direct - closed) <= 1e-9
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
    grid=(-10.0 * math.sqrt(2.0), 10.0 * math.sqrt(2.0), 2001),
)
def _exp_uniform_contraction(args):
    m, m_cert = contraction.bounded_metric_m_parameter(1.0)
    metric = contraction.bounded_example_metric(m)
    field = contraction.linear_additive_field(1)
    lo, hi, count = args.grid
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
    # Each identity compares two runs with different steps, so the deviation
    # is integration error: 1e-11 to 9e-10 over seeds at the default
    # tolerances, under 1.2e-11 over 300 seeds at these 100x tighter ones.
    tight = IntegratorConfig(1e-11, 1e-13)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(5):
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = t1 + float(rng.uniform(0.3, 1.5))
        t3 = t2 + float(rng.uniform(0.3, 1.5))
        x0 = rng.uniform(-2.0, 2.0, size=2)
        a1, a2 = rng.uniform(0.2, 1.5, size=2)
        u = PeriodicInput(2 * np.pi, lambda t, a=a1: [a * math.sin(t), a * math.cos(t)])
        v = PeriodicInput(2 * np.pi, lambda t, a=a2: [a * math.cos(2 * t), 0.0])
        # flow property: one un-segmented run against a restart at t2
        stopover = integrate(field, u, x0, (t1, t2), tight).final_state
        via = integrate(field, u, stopover, (t2, t3), tight).final_state
        direct = integrate(field, u, x0, (t1, t3), tight).final_state
        worst = max(worst, float(np.linalg.norm(via - direct)))
        # concatenation: switching to v at t2 equals running the glued signal
        via_v = integrate(field, v, stopover, (t2, t3), tight).final_state
        glued = integrate(field, concat(u, v, t2), x0, (t1, t3), tight).final_state
        worst = max(worst, float(np.linalg.norm(via_v - glued)))
        shift = float(rng.uniform(-3.0, 3.0))
        shifted = integrate(field, u.shifted(shift), x0, (t1 - shift, t2 - shift), tight).final_state
        worst = max(worst, float(np.linalg.norm(shifted - stopover)))
    return worst <= 1e-7, {"max_deviation": worst, "tolerance": 1e-7}, []


@_experiment("flow-limit", "schedule contraction passes to the limit signal through dyadic refinement")
def _exp_flow_limit(args):
    flow = flowspace.flow_from_field(contraction.linear_additive_field(1))
    target = PeriodicInput(2 * np.pi, lambda t: [math.sin(t)])
    cert = flowspace.check_limit_contraction(
        flow, (-1.0, 1.0), -1.0, target, 8, [([-2.0], [2.0]), ([0.5], [1.5])], (0.0, 2 * np.pi)
    )
    return bool(cert.holds), {"certificate": cert.to_dict()}, []


EXPERIMENTS = tuple(_EXPERIMENTS)


_EXIT_CODES = {True: 0, False: 1, None: 2}
_VERDICTS = {True: "confirmed", False: "REFUTED", None: "INCONCLUSIVE"}
_REPORT_VERDICTS = {True: "pass", False: "FAIL", None: "inconclusive"}


def _conclude(experiment: str, claim: str, confirmed, fields: dict, out_dir, line: str, csvs=()) -> int:
    """Serialize ``{experiment, claim, confirmed, **fields}``, write the ``csvs`` and then that document under
    ``out_dir`` unless it is None, and only then print ``line``: a non-finite value or a failed write prints no
    verdict.  Exit 0 confirmed, 1 refuted, 2 inconclusive, non-finite or unwritable."""
    doc = {"experiment": experiment, "claim": claim, "confirmed": confirmed, **fields}
    try:
        text = dumps_fixed(doc)
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"{experiment}.json")
            with contextlib.suppress(FileNotFoundError):  # an earlier run's verdict must not outlive a failed write
                os.remove(path)
            for write_csvs in csvs:
                write_csvs(out_dir)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
            return 2
    print(line)
    return _EXIT_CODES[confirmed]


def _cmd_find_rstar(args) -> int:
    try:
        cert = counterexample.find_r_star(args.interval)
    except NoRootFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    confirmed = True
    try:
        cert.validate()
    except ValueError as exc:
        print(f"certificate invariants violated: {exc}", file=sys.stderr)
        confirmed = False
    claim = "a strict local maximizer of the radial drift exists in the interval"
    return _conclude("find-rstar", claim, confirmed, {"certificate": cert.to_dict()}, args.out, cert.to_json())


def _cmd_run(args) -> int:
    claim, _, run = _EXPERIMENTS[args.experiment]
    claim = claim.format_map(vars(args))
    try:
        # With NumPy's warnings off the library's finiteness checks decide, under any warning filter.
        with np.errstate(all="ignore"):
            confirmed, payload, csvs = run(args)
    except ContractionLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    confirmed = None if confirmed is None else bool(confirmed)
    line = f"{args.experiment}: {_VERDICTS[confirmed]} -- {claim}"
    return _conclude(args.experiment, claim, confirmed, {"seed": args.seed, **payload}, args.out, line, csvs)


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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on -h and, through _Parser.error, on a usage error
        return int(exc.code or 0)
    if args.command == "find-rstar":
        return _cmd_find_rstar(args)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
