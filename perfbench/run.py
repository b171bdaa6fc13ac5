#!/usr/bin/env python3
"""Run one contraction-lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ges-sweep --seed 1 --seconds 16 --trace 0

Run from the repository root; the library is imported from ``src/``, nothing
is installed or built.  The run is one process and one thread, issuing one
verdict job at a time (a closed loop with a single client).  It

1. times the one-time set-up in ``SETUP_PROCESSES`` fresh interpreters
   (``--trace 0`` only) and keeps the median;
2. runs one untimed warm-up job of each kind, at the smoke-test size;
3. repeats rounds of jobs, each drawn from the generator seeded with
   (seed, round index), while the next round is expected to end within
   ``--seconds``, and at least ``MIN_ROUNDS`` rounds;
4. with ``--trace 1``, runs round 0 once untraced and once more with every
   public function of the library wrapped (see ``tracer.py``), and reports
   per-layer numbers and the tracing overhead of that round.

The host's speed drifts by tens of percent within a minute, so a
``speed.SpeedProbe`` times fixed calibration kernels, which share none of
the library's code, between jobs and on a timer during them.  The end-to-end
times are reported at the reference speed (see ``speed.py``); the record
also keeps them as measured.

Every job is scored against a reference from ``oracles.py``.  The last line
of standard output is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the full record with
provenance, which is also written to ``.perfbench/`` in the repository root.
``CONTRACTION_LAB_THREADS`` is never set by the benchmark; the record says
whether the environment set it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROCESSES = 5
WARMUP_ROUND = 2**32 - 1
# One cli-claims round takes most of a run's seconds; two rounds give every
# job kind two samples, so the median latency is not one job's time.
MIN_ROUNDS = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "ref_err": "ratio",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}


def setup(cl):
    """The one-time set-up every workload shares; ``setup_s`` times exactly this."""
    r_star = cl.find_r_star().r_star
    forced = cl.build_counterexample(r_star)
    scalar = cl.scalar_example_system()
    m, _ = cl.bounded_metric_m_parameter(1.0)
    return SimpleNamespace(r_star=r_star, forced=forced, scalar=scalar, m=m)


def setup_probe() -> None:
    """Body of one fresh set-up process: print import + set-up seconds, then a speed-probe pass's seconds."""
    t0 = time.perf_counter()
    import contraction_lab

    setup(contraction_lab)
    elapsed = time.perf_counter() - t0
    from speed import SpeedProbe

    probe = SpeedProbe(sample_during_jobs=False)
    probe.between()  # the first passes in a fresh process are slow
    print(repr(elapsed), repr(statistics.median(probe.between()[0] for _ in range(3))))


def fresh_setup_seconds() -> list[tuple[float, float]]:
    """(set-up seconds, wall seconds of a speed-probe pass) from each fresh process."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, pass_s = done.stdout.split()[-2:]
        samples.append((float(elapsed), float(pass_s)))
    return samples


def run_jobs(jobs, probe: SpeedProbe) -> list[dict]:
    """Time each job's call, then score it outside the timed region.

    ``probe`` measures the host's speed just before and after each job and
    during it; the passes it makes during the job are not counted in its time.
    """
    records = []
    before = probe.between()
    for job in jobs:
        error, ok, score = None, False, None
        with probe.during():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = job.call()
            except Exception as exc:  # a raising job is a failed verdict, not a crash
                error = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
        probe_s, probe_cpu = probe.spent_within(t0, t1)
        during = probe.samples
        if error is None:
            try:
                ok, score = job.score(result)
            except (KeyError, TypeError, ValueError, OSError, IndexError) as exc:
                error = f"scoring {type(exc).__name__}: {exc}"
        after = probe.between()
        speed = [before, *during, after]
        failed = error is not None or not ok or not score <= 1.0  # a NaN deviation fails
        records.append(
            {
                "kind": job.kind,
                "s": t1 - t0 - probe_s,
                "cpu": c1 - c0 - probe_cpu,
                "pass_s": statistics.fmean(w for w, _ in speed),
                "pass_cpu": statistics.fmean(c for _, c in speed),
                "passes_during": len(during),
                "score": score,
                "failed": failed,
                "error": error,
            }
        )
        before = after
    return records


def rng_for(seed: int, index: int):
    import numpy as np

    return np.random.default_rng([seed, index])


def run_rounds(workload, seed, tiny, probe, seconds=None, count=None, tracer=None) -> list[list[dict]]:
    """Rounds while the next is expected to end within ``seconds`` (at least ``MIN_ROUNDS``), or exactly ``count``."""
    rounds = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        if count is not None and index >= count:
            break
        if count is None and index >= MIN_ROUNDS:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / index > seconds:  # the next round would end past the run's seconds
                break
        jobs = workload.round(rng_for(seed, index), tiny)
        if tracer is None:
            rounds.append(run_jobs(jobs, probe))
        else:
            with tracer.installed():
                rounds.append(run_jobs(jobs, probe))
    return rounds


def git_commit():
    """HEAD of the checkout, read from .git without running git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": args.seed,
        "contraction_lab_threads_set": "CONTRACTION_LAB_THREADS" in os.environ,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes: one round of tiny jobs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "contraction_lab" / "__init__.py").is_file():
        print(f"error: no contraction_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe()
        return 0

    import contraction_lab
    import workloads
    from speed import REFERENCE_PASS_S, SpeedProbe, at_reference_speed
    from tracer import LAYER_UNITS, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    try:
        setup_samples = [] if args.trace else fresh_setup_seconds()
        with tracer.installed() if tracer else contextlib.nullcontext():
            ctx = setup(contraction_lab)
        workload = workloads.WORKLOADS[args.workload](ctx, workdir)

        warmup, seen = [], set()
        for job in workload.round(rng_for(args.seed, WARMUP_ROUND), tiny=True):
            if job.kind not in seen:
                seen.add(job.kind)
                warmup.append(job)
        warm = run_jobs(warmup, probe)

        count = 1 if (args.tiny or args.trace) else None
        rounds = run_rounds(workload, args.seed, args.tiny, probe, seconds=args.seconds, count=count)
        # No passes inside traced jobs: the spans would include them.
        quiet = SpeedProbe(sample_during_jobs=False)
        traced = run_rounds(workload, args.seed, args.tiny, quiet, count=1, tracer=tracer) if tracer else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [job for rnd in rounds for job in rnd]
    every = warm + timed + [job for rnd in traced for job in rnd]
    failed = [job for job in every if job["failed"]]
    scores = [job["score"] for job in timed if job["score"] is not None and math.isfinite(job["score"])]
    walls = [sum(job["s"] for job in rnd) for rnd in rounds]
    cpus = [sum(job["cpu"] for job in rnd) for rnd in rounds]
    ref_s = [[at_reference_speed(job["s"], job["pass_s"]) for job in rnd] for rnd in rounds]
    ref_cpu = [[at_reference_speed(job["cpu"], job["pass_cpu"]) for job in rnd] for rnd in rounds]

    # Times are at the reference machine speed; the record keeps them as measured too.
    e2e = {
        "setup_s": statistics.median(at_reference_speed(s, c) for s, c in setup_samples) if setup_samples else None,
        "wall_s": statistics.median(sum(rnd) for rnd in ref_s),
        "verdict_p50_s": statistics.median(t for rnd in ref_s for t in rnd),
        "ref_err": max(scores) if scores else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": statistics.median(sum(rnd) for rnd in ref_cpu),
    }
    measured = {
        "setup_s": statistics.median(s for s, _ in setup_samples) if setup_samples else None,
        "wall_s": statistics.median(walls),
        "verdict_p50_s": statistics.median(job["s"] for job in timed),
        "cpu_s": statistics.median(cpus),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items() if v is not None}
    else:
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = sum(job["s"] for job in traced[0]) - walls[0]
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_UNITS.items()}

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "rounds": len(rounds),
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "setup_samples_s": setup_samples,
        "reference_pass_s": REFERENCE_PASS_S,
        "verdict_samples": len(timed),
        "jobs_per_kind": dict(Counter(job["kind"] for job in timed)),
        "job_samples": [[job["kind"], job["s"], job["cpu"], job["pass_s"], job["pass_cpu"], job["passes_during"]] for job in timed],
        "fail_frac": len(failed) / len(every),
        "failures": [f"{job['kind']}: {job['error'] or 'verdict or tolerance'} (score {job['score']})" for job in failed][:20],
        "untraced": e2e,
        "untraced_as_measured": measured,
        "metrics": metrics,
        "provenance": provenance(args),
    }
    if tracer is not None:
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    text = json.dumps(record)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": not failed, "attempted": len(every), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
