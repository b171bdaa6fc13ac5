#!/usr/bin/env python3
"""Steadiness report: repeat each workload over seeds and give each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2
    python3 perfbench/steadiness.py --workloads switched-flow --seeds 1-5

Runs ``perfbench/run.py`` once per (set, workload, seed), one process at a
time, and reports for every end-to-end metric the median and quartiles of
its values (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median as a share of the metric's bound in ``BENCHMARK.json``,
and, with two or more sets, how far each later set's median moved from the
first.  A metric is steady when its spread is below a third of its bound.
The report is printed and written to ``.perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """The result line of one run, and the run's elapsed seconds."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def summarize(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3.0
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values: dict[str, list[float]] = {}
            failed, elapsed = 0, []
            for seed in seeds:
                result, seconds = run_once(workload, seed, args.seconds, 0)
                elapsed.append(seconds)
                failed += result["failed"] + (not result["correct"])
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append({"failed": failed, "elapsed_s": elapsed, "values": values, "stats": {n: summarize(v, bounds.get(n)) for n, v in values.items()}})
        report["workloads"][workload] = sets
        print(f"\n{workload}  (run time {min(min(s['elapsed_s']) for s in sets):.0f}-{max(max(s['elapsed_s']) for s in sets):.0f} s)")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
        for name in sorted(sets[0]["stats"]):
            for k, s in enumerate(sets):
                st = s["stats"][name]
                verdict = "steady" if st.get("steady") else ("within bound" if st["spread"] <= st.get("bound", 0) else "UNSTEADY")
                if name == "setup_s" and not st.get("steady"):
                    verdict += " (setup_s spread is not gated)"
                drift = ""
                if k > 0:
                    first = sets[0]["stats"][name]["median"]
                    change = (st["median"] - first) / first if better.get(name) == "lower" else (first - st["median"]) / first
                    drift = f"  worse by {change:+.3f} vs set 1"
                    if name in bounds and change > bounds[name]:
                        verdict, ok = verdict + " DRIFT", False
                elif "UNSTEADY" in verdict and name != "setup_s":
                    ok = False
                print(
                    f"  {name if k == 0 else '':<16}{st['median']:>12.5g}{st['q1']:>12.5g}{st['q3']:>12.5g}"
                    f"{st['spread']:>9.3f}{st.get('bound', float('nan')):>7.2f}  {verdict}{drift}"
                )
        if any(s["failed"] for s in sets):
            print(f"  FAILED jobs or incorrect runs: {[s['failed'] for s in sets]}")
            ok = False
    out = ROOT / ".perfbench" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
