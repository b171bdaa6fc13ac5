import json
import math
import os
import subprocess
import sys
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


def spelled_out_defaults(experiment):
    """The experiment's registry defaults as command-line flags."""
    flags = []
    for flag, value in _EXPERIMENTS[experiment][1].items():
        text = ":".join(map(repr, value[0])) if flag == "grid" else repr(value)
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

    def test_tolerance_below_float_spacing_exits_0(self, capsys):
        assert run_cli("find-rstar", "--tol", "1e-300") == 0

    def test_malformed_interval_exits_64(self, capsys):
        assert run_cli("find-rstar", "--interval", "nope") == 64

    def test_format_flag_rejected(self, tmp_path, capsys):
        # find-rstar writes JSON only and takes no --format flag.
        assert run_cli("find-rstar", "--format", "csv", "--out", str(tmp_path)) == 64
        assert not (tmp_path / "find-rstar.json").exists()

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


class TestRun:
    def test_unknown_experiment_exits_64(self, capsys):
        assert run_cli("run", "not-an-experiment") == 64

    def test_unknown_parameter_rejected(self, capsys):
        assert run_cli("run", "flow-limit", "--rate", "1.0") == 64
        assert run_cli("run", "circle-orbit", "--grid", "0:1:5") == 64

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
            ["ges-check", "--seed", "-1"],
            ["circle-orbit", "--tol", "nan"],
            ["circle-orbit", "--tol=-1e-10"],
            ["divergence", "--periods", "0"],
            ["divergence", "--delta", "-0.1"],
            ["divergence", "--delta", "3.0"],
            ["entrainment-linear", "--tol", "inf"],
            ["metric-certify", "--grid", "0:1:0"],
            ["metric-certify", "--grid", "nan:1:5"],
            ["metric-violate", "--grid", "1:0:5"],
            ["uniform-contraction", "--grid", "0:1:5", "--grid", "0:2:5"],
        ],
    )
    def test_bad_flag_value_exits_64_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli("run", *argv, "--out", str(out), "--format", "both") == 64
        assert not out.exists()

    def test_circle_orbit_confirms(self, tmp_path, capsys):
        assert run_cli("run", "circle-orbit", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "circle-orbit.json").read_text())
        assert doc["confirmed"] is True
        assert doc["residual"] <= 1e-10

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_output_is_byte_deterministic(self, tmp_path, capsys, experiment):
        a, b = tmp_path / "a", tmp_path / "b"
        flags = [*SMALL_FLAGS.get(experiment, []), "--format", "both"]
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
        assert _EXPERIMENTS["uniform-contraction"][1]["grid"] == [(-half_width, half_width, 2001)]

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
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--horizon", "2000"], ["--rate", "1e308"]])
    def test_non_finite_verdict_exits_2_and_writes_nothing(self, tmp_path, capsys, flags):
        # The margin would overflow to inf: a numerical failure, not a refutation.
        error = {
            "--horizon": "the relative excess is not finite at t=1475.5229471863781",
            "--rate": "rate * r overflows on the generator scan grid for rate 1e+308",
        }[flags[0]]
        out = tmp_path / "out"
        assert run_cli("run", "ges-check", *flags, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: {error}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_csv_only_format_skips_json(self, tmp_path, capsys):
        run_cli("run", "divergence", "--periods", "2", "--out", str(tmp_path), "--format", "csv")
        assert not (tmp_path / "divergence.json").exists()
        assert (tmp_path / "divergence_perturbed.csv").exists()

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "divergence"])
    def test_csv_only_format_refused_without_csv_output(self, tmp_path, capsys, experiment):
        # Only divergence writes CSV; elsewhere --format csv would write no file at all.
        out = tmp_path / "out"
        assert run_cli("run", experiment, "--format", "csv", "--out", str(out)) == 64
        captured = capsys.readouterr()
        assert "writes no CSV" in captured.err
        assert captured.out == ""
        assert not out.exists()


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
        field, zero = counterexample.circle_field(), ConstantInput.zero(2)
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
