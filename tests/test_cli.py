import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import contraction_lab
from contraction_lab import cli, counterexample
from contraction_lab.cli import _EXPERIMENTS, EXPERIMENTS, main
from contraction_lab.contraction import bounded_metric_m_parameter
from contraction_lab.dynamics import ConstantInput, integrate


def run_cli(*argv):
    return main(list(argv))


# Flags that shrink each experiment to a quick run; the others take none.
SMALL_FLAGS = {
    "ges-check": ["--horizon", "0.25"],
    "divergence": ["--periods", "3"],
    "metric-certify": ["--grid=-2:2:401"],
    "metric-violate": ["--grid=9:11:201"],
    "uniform-contraction": ["--grid=-2:2:41"],
}


# A valid value of each run flag but --out.
FLAG_VALUES = {
    "grid": "0:1:5", "horizon": "1", "periods": "3", "rate": "0.5", "delta": "0.1", "format": "json", "seed": "0"
}


def run_flags(experiment):
    """The flags of ``run EXPERIMENT``, without the -h/--help that every parser has."""
    return [*_EXPERIMENTS[experiment][1], "out", "seed"]


def every_file(experiment):
    """``--format both`` where the experiment takes it, so that it writes every file it can."""
    return ["--format", "both"] if "format" in run_flags(experiment) else []


def spelled_out_defaults(experiment):
    """The experiment's registry defaults as command-line flags; ``str`` spells a float as ``repr`` does."""
    flags = []
    for flag, value in _EXPERIMENTS[experiment][1].items():
        text = ":".join(map(str, value)) if flag == "grid" else str(value)
        flags.append(f"--{flag}={text}")
    return flags


@pytest.fixture(scope="module")
def default_artifact(tmp_path_factory):
    """The JSON bytes of an experiment run once at its defaults, shared by the tests that read it."""
    out = tmp_path_factory.mktemp("defaults")
    artifacts = {}

    def artifact(experiment):
        if experiment not in artifacts:
            assert run_cli("run", experiment, "--out", str(out)) == 0
            artifacts[experiment] = (out / f"{experiment}.json").read_bytes()
        return artifacts[experiment]

    return artifact


class TestFindRstar:
    def test_default_succeeds(self, capsys):
        assert run_cli("find-rstar") == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["r_star"] - 2.79098840365914) <= 1e-10

    def test_empty_interval_exits_2(self, capsys):
        assert run_cli("find-rstar", "--interval", "0.1:1") == 2

    def test_bad_flag_value_exits_64(self, capsys):
        assert run_cli("find-rstar", "--tol", "bogus") == 64

    @pytest.mark.parametrize("flags", [["--tol", "1e-300"], ["--format", "csv"]])
    def test_flag_not_taken_exits_64_and_writes_nothing(self, tmp_path, capsys, flags):
        # The Newton polish, not a bisection tolerance, decides r_star's bits, and find-rstar writes JSON only.
        out = tmp_path / "out"
        assert run_cli("find-rstar", *flags, "--out", str(out)) == 64
        assert capsys.readouterr().err.splitlines()[0].startswith("usage: contraction-lab find-rstar [-h]")
        assert not out.exists()

    def test_malformed_interval_exits_64(self, capsys):
        assert run_cli("find-rstar", "--interval", "nope") == 64

    def test_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "arts"
        assert run_cli("find-rstar", "--out", str(out)) == 0
        doc = json.loads((out / "find-rstar.json").read_text())
        assert doc["confirmed"] is True
        assert doc["experiment"] == "find-rstar"

    @pytest.mark.parametrize("interval, code", [("0.1:4", 0), ("30:40", 1)])
    def test_artifact_confirmed_matches_exit_code(self, tmp_path, capsys, interval, code):
        # On 30:40 the root's first-order residual is -1.49e-11, above the 1e-12 invariant.
        assert run_cli("find-rstar", "--interval", interval, "--out", str(tmp_path)) == code
        doc = json.loads((tmp_path / "find-rstar.json").read_text())
        assert doc["confirmed"] is (code == 0)

    def test_interval_beyond_scan_cap_exits_64_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("find-rstar", "--interval", "0.1:1e9", "--out", str(out)) == 64
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--interval", "0.1:4", "--interval", "30:40"], ["--out", "a", "--out", "b"]])
    def test_flag_given_twice_exits_64_and_writes_nothing(self, tmp_path, capsys, flags):
        assert run_cli("find-rstar", *flags, "--out", str(tmp_path / "out")) == 64
        assert capsys.readouterr().err.endswith(f"error: {flags[0]} given twice\n")
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_unknown_experiment_exits_64(self, capsys):
        assert run_cli("run", "not-an-experiment") == 64

    @pytest.mark.parametrize("argv", [["--out", "o2"], ["--seed", "3", "ges-check"]])
    def test_flag_before_the_experiment_exits_64_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", *argv) == 64
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: contraction-lab run [-h] EXPERIMENT")
        want = f"{argv[0]} goes after EXPERIMENT: contraction-lab run EXPERIMENT {argv[0]} ..."
        assert error == f"contraction-lab run: error: {want}"
        assert not any(tmp_path.iterdir())

    def test_unknown_parameter_rejected(self, capsys):
        assert run_cli("run", "flow-limit", "--rate", "1.0") == 64
        assert run_cli("run", "circle-orbit", "--grid", "0:1:5") == 64

    @pytest.mark.parametrize(
        "experiment, flag", [(e, f) for e in EXPERIMENTS for f in FLAG_VALUES if f not in run_flags(e)]
    )
    def test_flag_not_taken_exits_64_and_writes_nothing(self, tmp_path, capsys, experiment, flag):
        out = tmp_path / "out"
        assert run_cli("run", experiment, f"--{flag}={FLAG_VALUES[flag]}", "--out", str(out)) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"usage: contraction-lab run {experiment} [-h]")
        assert f"unrecognized arguments: --{flag}=" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_experiment_help_names_exactly_its_flags(self, capsys, experiment):
        assert run_cli("run", experiment, "-h") == 0
        usage = capsys.readouterr().out
        assert usage.startswith(f"usage: contraction-lab run {experiment} [-h]")
        flags = {f"--{flag}" for flag in run_flags(experiment)}
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == flags | {"--help"}

    @pytest.mark.parametrize("experiment, flag", [(e, f) for e in EXPERIMENTS for f in run_flags(e)])
    def test_flag_given_twice_exits_64_and_writes_nothing(self, tmp_path, capsys, experiment, flag):
        out = tmp_path / "out"
        text = FLAG_VALUES.get(flag, str(out))
        assert run_cli("run", experiment, f"--{flag}={text}", f"--{flag}={text}", "--out", str(out)) == 64
        assert capsys.readouterr().err.endswith(f"error: --{flag} given twice\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["divergence", "--delta", "5e-8"],
            ["divergence", "--delta", "inf"],
            ["divergence", "--delta", "1e300"],  # f(r_star - delta) would overflow
            ["ges-check", "--horizon", "0"],
            ["divergence", "--periods", "10", "--periods", "3"],  # the first value equals the default
            ["ges-check", "--seed", "0", "--seed", "1"],
        ],
    )
    def test_bad_flag_prints_the_experiment_usage_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli("run", *argv, "--out", str(out)) == 64
        assert capsys.readouterr().err.splitlines()[0].startswith(f"usage: contraction-lab run {argv[0]} [-h]")
        assert not out.exists()

    @pytest.mark.parametrize("rate, code", [("0.5000000001", 2), ("0.50000000001", 2), ("0.500000001", 1), ("0.6", 1)])
    def test_ges_check_above_half_is_never_confirmed(self, tmp_path, capsys, rate, code):
        # The claim is false above rate 1/2; a scan that misses the thin set where it fails is inconclusive.
        assert run_cli("run", "ges-check", "--rate", rate, "--horizon", "1", "--out", str(tmp_path)) == code
        verdict = {1: "REFUTED", 2: "INCONCLUSIVE"}[code]
        assert capsys.readouterr().out.startswith(f"ges-check: {verdict} -- ")
        assert json.loads((tmp_path / "ges-check.json").read_text())["confirmed"] is {1: False, 2: None}[code]

    @pytest.mark.parametrize(
        "argv", [["metric-certify", "--grid=1e200:1e200:1"], ["uniform-contraction", "--grid=-1e308:1e308:3"]]
    )
    def test_overflowing_grid_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        # The library's finiteness checks decide, under any warning filter, and no warning is shown.
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("run", *argv, "--out", str(out)) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ") and captured.out == ""
        assert not out.exists()

    def test_refuted_claim_exits_1(self, tmp_path, capsys):
        code = run_cli("run", "ges-check", "--rate", "0.6", "--out", str(tmp_path))
        assert code == 1
        doc = json.loads((tmp_path / "ges-check.json").read_text())
        assert doc["confirmed"] is False

    def test_inconclusive_divergence_exits_2_and_reports_inconclusive(self, tmp_path, capsys):
        # A start 1e-6 inside r_star escapes too slowly for the return-map
        # verdict to settle, though the start does move away: inconclusive,
        # not refuted.
        assert run_cli("run", "divergence", "--delta", "1e-6", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().out.startswith("divergence: INCONCLUSIVE -- ")
        doc = json.loads((tmp_path / "divergence.json").read_text())
        assert doc["confirmed"] is None
        assert doc["verdict"] == "inconclusive" and doc["divergence"]["grew"] is True
        assert run_cli("report", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["divergence", "inconclusive"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ges-check", "--rate", "nan"],
            ["ges-check", "--rate", "0"],
            ["ges-check", "--horizon", "-1"],
            ["ges-check", "--horizon", "inf"],
            ["ges-check", "--horizon", "50001"],
            ["ges-check", "--horizon", "1e9"],
            ["ges-check", "--seed", "-1"],
            ["circle-orbit", "--tol", "nan"],
            ["circle-orbit", "--tol=-1e-10"],
            ["divergence", "--periods", "0"],
            ["divergence", "--periods", "2001"],
            ["divergence", "--periods", "100000000"],
            ["divergence", "--delta", "-0.1"],
            ["divergence", "--delta", "0"],
            ["divergence", "--delta", "1e-17"],
            ["divergence", "--delta", "3.0"],
            ["divergence", "--delta", "1.2"],  # below the rest radius 1.6749, outside the escape band
            ["divergence", "--delta", "2.79"],
            # within the detector's merge distance 1e-7 of the orbit, where one return map reads as entrainment
            ["divergence", "--delta", "1e-9"],
            ["divergence", "--delta", "1e-8"],
            ["divergence", "--delta", "5e-8"],
            ["divergence", "--delta", "1e-7"],
            ["entrainment-linear", "--tol", "inf"],
            ["metric-certify", "--grid", "0:1:0"],
            ["metric-certify", "--grid", "nan:1:5"],
            ["metric-violate", "--grid", "1:0:5"],
            ["metric-certify", "--grid", "0:1:1000001"],
            ["metric-certify", "--grid", "0:1:10000000000000"],
            ["uniform-contraction", "--grid", "0:1:5", "--grid", "0:2:5"],
            ["circle-orbit", "--tol", "1e-16"],  # below the exact orbit's rounding residual 6.3e-16
            ["divergence", "--format", "csv"],  # would write the CSVs without the JSON verdict
            ["entrainment-linear", "--tol", "0.1"],  # would stop the detector after 2 return maps
        ],
    )
    def test_bad_flag_value_exits_64_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli("run", *argv, "--out", str(out), *every_file(argv[0])) == 64
        assert not out.exists()

    def test_circle_orbit_confirms(self, tmp_path, capsys):
        assert run_cli("run", "circle-orbit", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "circle-orbit.json").read_text())
        assert doc["confirmed"] is True
        assert doc["residual"] <= 1e-10

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_output_is_byte_deterministic(self, tmp_path, capsys, experiment):
        a, b = tmp_path / "a", tmp_path / "b"
        flags = [*SMALL_FLAGS.get(experiment, []), *every_file(experiment)]
        assert run_cli("run", experiment, *flags, "--out", str(a)) == 0
        assert run_cli("run", experiment, *flags, "--out", str(b)) == 0
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if _EXPERIMENTS[e][1]])
    def test_spelled_out_defaults_change_nothing(self, tmp_path, capsys, default_artifact, experiment):
        assert run_cli("run", experiment, *spelled_out_defaults(experiment), "--out", str(tmp_path)) == 0
        assert (tmp_path / f"{experiment}.json").read_bytes() == default_artifact(experiment)

    def test_uniform_grid_default_spans_ten_sqrt_m(self):
        m, _ = bounded_metric_m_parameter(1.0)
        half_width = 10.0 * math.sqrt(m)
        assert _EXPERIMENTS["uniform-contraction"][1]["grid"] == (-half_width, half_width, 2001)

    def test_json_newline_terminated(self, tmp_path, capsys):
        run_cli("run", "circle-orbit", "--out", str(tmp_path))
        raw = (tmp_path / "circle-orbit.json").read_bytes()
        assert raw.endswith(b"\n")

    def test_divergence_writes_csv(self, tmp_path, capsys):
        code = run_cli(
            "run", "divergence", "--periods", "4", "--out", str(tmp_path), "--format", "both"
        )
        assert code == 0
        pert = (tmp_path / "divergence_perturbed.csv").read_text().splitlines()
        orbit = (tmp_path / "divergence_orbit.csv").read_text().splitlines()
        assert pert[0] == "t,x,y,r" and orbit[0] == "t,x,y,r"
        assert len(pert) > 10 and len(orbit) > 10

    def test_grid_certificates_pin_exact_values(self, default_artifact):
        # Exact margins, witnesses and values of the three grid-certificate
        # experiments: however the contraction matrices are assembled, they
        # must reproduce the per-point arithmetic to the last bit.
        names = ("metric-certify", "metric-violate", "uniform-contraction")
        docs = {name: json.loads(default_artifact(name)) for name in names}
        certify = docs["metric-certify"]["certificate"]
        assert certify["margin"] == -1.1851851989020563
        assert certify["witness"]["x"] == [-3.315999999999999]
        violate = docs["metric-violate"]
        assert violate["wide_certificate"]["margin"] == 185.1328205390093
        assert violate["wide_certificate"]["witness"]["x"] == [-19.95]
        assert violate["window_certificate"]["margin"] == 33.19442577274942
        assert violate["window_certificate"]["witness"]["x"] == [10.027513098524]
        assert violate["direct_value"] == 31.839481707517592
        uniform = docs["uniform-contraction"]["certificate"]
        assert uniform["margin"] == -0.10683770220584154
        assert uniform["witness"] == {"x": [-1.4849242404917504], "c": [1.0]}

    @pytest.mark.parametrize("argv", [["find-rstar"], ["run", "circle-orbit"]])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv):
        # A directory under a regular file cannot be made: a failure, not a refutation.
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(*argv, "--out", str(blocker / "out")) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--horizon", "2000"], ["--rate", "1e308"]])
    def test_non_finite_verdict_exits_2_and_writes_nothing(self, tmp_path, capsys, flags):
        # The margin would overflow to inf: a numerical failure, not a refutation.
        error = {
            "--horizon": "the relative excess is not finite at t=1483.327478736012",
            "--rate": "rate * r overflows on the generator scan grid for rate 1e+308",
        }[flags[0]]
        out = tmp_path / "out"
        assert run_cli("run", "ges-check", *flags, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: {error}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "divergence"])
    def test_csv_only_format_refused_without_csv_output(self, tmp_path, capsys, experiment):
        # Every run writes its JSON verdict; only divergence adds CSVs, with --format both, and only it takes --format.
        out = tmp_path / "out"
        assert run_cli("run", experiment, "--format", "csv", "--out", str(out)) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()

    def test_failed_csv_write_leaves_no_verdict(self, tmp_path, capsys):
        # The CSVs are written before the JSON verdict, and the verdict line is printed last.
        (tmp_path / "divergence_orbit.csv").mkdir()
        argv = ["run", "divergence", "--periods", "2", "--format", "both", "--out", str(tmp_path)]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write" in captured.err
        assert not (tmp_path / "divergence.json").exists()

    def test_failed_rerun_removes_the_previous_verdict(self, tmp_path, capsys):
        argv = ["run", "divergence", "--periods", "2", "--format", "both", "--out", str(tmp_path)]
        assert run_cli(*argv) == 0
        (tmp_path / "divergence_orbit.csv").unlink()
        (tmp_path / "divergence_orbit.csv").mkdir()
        assert run_cli(*argv, "--delta", "1e-6") == 2
        assert "cannot write" in capsys.readouterr().err
        assert not (tmp_path / "divergence.json").exists()
        assert run_cli("report", str(tmp_path)) == 0
        assert "divergence" not in capsys.readouterr().out

    def test_metric_violate_rests_on_the_window_at_the_paper_point(self, tmp_path, capsys):
        # A one-point grid at 0 misses the violation, but the claim is about x0.
        assert run_cli("run", "metric-violate", "--grid=0:0:1", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "metric-violate.json").read_text())
        assert doc["confirmed"] is True and doc["wide_certificate"]["holds"] is True

    @pytest.mark.parametrize("grid, code", [("-2:2:41", 0), ("0:1452:1", 2), ("1e11:1e11:1", 2)])
    def test_metric_certify_failure_within_rounding_is_inconclusive(self, tmp_path, capsys, grid, code):
        # Past |x| ~ 1e3 the identity, and past 1e8 the margin, miss only by rounding, a few eps*x^2: no witness.
        assert run_cli("run", "metric-certify", f"--grid={grid}", "--out", str(tmp_path)) == code
        assert json.loads((tmp_path / "metric-certify.json").read_text())["confirmed"] is {0: True, 2: None}[code]

    def test_metric_certify_refutes_an_identity_that_misses_beyond_rounding(self, tmp_path, capsys, monkeypatch):
        derivative = cli.contraction.scalar_metric_derivative
        monkeypatch.setattr(cli.contraction, "scalar_metric_derivative", lambda x: 1.01 * derivative(x))
        assert run_cli("run", "metric-certify", "--grid=-2:2:41", "--out", str(tmp_path)) == 1
        assert json.loads((tmp_path / "metric-certify.json").read_text())["identity_max_rel_err"] > 1e-3

    def test_ges_check_claim_names_the_rate_checked(self, tmp_path, capsys):
        assert run_cli("run", "ges-check", "--rate", "0.6", "--out", str(tmp_path)) == 1
        claim = "unforced trajectories decay at rate 0.6 and f(r) + 0.6*r <= 0 on the scan grid of [0, 50]"
        assert capsys.readouterr().out == f"ges-check: REFUTED -- {claim}\n"
        assert json.loads((tmp_path / "ges-check.json").read_text())["claim"] == claim


class TestReport:
    def test_empty_directory(self, tmp_path, capsys):
        assert run_cli("report", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "experiment" in out

    def test_missing_directory_exits_2(self, capsys):
        assert run_cli("report", "/nonexistent/dir") == 2

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",
            '"artifact"',
            '{"experiment": 5, "claim": "c", "confirmed": true}',
            '{"experiment": "e", "claim": null, "confirmed": true}',
            '{"experiment": "e", "claim": "c", "confirmed": "yes"}',
            '{"experiment": "e", "claim": "c", "confirmed": 1}',
        ],
    )
    def test_corrupted_json_exits_2(self, tmp_path, capsys, text):
        (tmp_path / "broken.json").write_text(text)
        assert run_cli("report", str(tmp_path)) == 2
        assert "broken.json" in capsys.readouterr().err

    def test_summarizes_artifacts(self, tmp_path, capsys):
        run_cli("run", "circle-orbit", "--out", str(tmp_path))
        run_cli("run", "ges-check", "--rate", "0.6", "--out", str(tmp_path))
        capsys.readouterr()
        assert run_cli("report", str(tmp_path)) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + two experiments
        assert any("circle-orbit" in line and "pass" in line for line in lines)
        assert any("ges-check" in line and "FAIL" in line for line in lines)


class TestInterface:
    def test_experiment_names_frozen(self):
        assert EXPERIMENTS == (
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

    def test_cached_parser_carries_no_flag_values(self, tmp_path, capsys):
        # The parser is built once per process; each call still starts from
        # the defaults and still exits 64 on a bad flag.
        assert cli._build_parser() is cli._build_parser()
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "ges-check", "--rate", "0.6", "--out", str(a)) == 1
        assert run_cli("run", "ges-check", "--out", str(b)) == 0
        assert json.loads((b / "ges-check.json").read_text())["rate"] == 0.5
        assert run_cli("run", "ges-check", "--rate", "nan", "--out", str(b)) == 64

    def test_module_entrypoint(self, tmp_path):
        # The child runs in tmp_path, so a relative PYTHONPATH entry such as
        # `src` would no longer point at the package: put the directory that
        # holds the imported package first and make inherited entries absolute.
        package_root = Path(contraction_lab.__file__).resolve().parent.parent
        inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        path = [str(package_root)] + [os.path.abspath(p) for p in inherited if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(
            [sys.executable, "-m", "contraction_lab", "find-rstar"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["r_star"] == pytest.approx(2.79098840365914, abs=1e-10)

    def test_lockstep_and_single_runs_agree(self, tmp_path, capsys):
        # verify_ges advances all starts in lockstep on shared steps; each
        # start alone must end where integrate takes it, within 1e-9 of the
        # start's norm (the scale of the GES bound), and give the same verdict.
        starts = np.array([[0.0, 0.0], [1.0, 0.0], [-3.0, 2.5], [0.2, -7.0], [6.0, 6.0]])
        field, zero = counterexample.circle_field(), ConstantInput(np.zeros(2))
        lockstep = integrate(field, zero, starts, (0.0, 20.0)).final_state
        for start, final in zip(starts, lockstep):
            alone = integrate(field, zero, start, (0.0, 20.0)).final_state
            assert np.linalg.norm(final - alone) <= 1e-9 * np.linalg.norm(start)
        for rate in (0.5, 0.6):
            batch = counterexample.verify_ges(starts, 20.0, rate).holds
            assert batch == all(counterexample.verify_ges([x], 20.0, rate).holds for x in starts)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "ges-check", "--out", str(a)) == 0
        assert run_cli("run", "ges-check", "--out", str(b)) == 0
        assert (a / "ges-check.json").read_bytes() == (b / "ges-check.json").read_bytes()
