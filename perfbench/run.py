"""Closed-loop benchmark of `gpmg solve`, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--levels L]

Run from the root of a source tree (the directory holding `src/gpmg`). One
client in one process runs solves back to back, each in a fresh interpreter
(child.py) that calls `gpmg.cli.main(["solve", ...])` on a config generated
from the seed (workloads.py), and checks each run's CSV table.

--trace 0 loops untraced solves for S seconds (at least one), then adds
set-up-only runs until SETUP_SAMPLES set-ups have been timed, and reports
the end-to-end metrics. --trace 1 loops untraced solves for S seconds, then
traced solves for S seconds, and reports the per-layer metrics of the traced
solves plus the tracing overhead. Each metric is the median over the run's
samples; the quartiles are printed beside it. The last line of standard
output is one JSON object; details and the last traced run's spans are
written under .perfbench_work/ in the source tree. --levels overrides the
workload's level count (the smoke test uses 2).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER, absent_metrics
from workloads import WORKLOADS, check_output, parse_csv

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 3
# No child starts once the run might pass RUN_BUDGET_S; a child still
# running at RUN_LIMIT_S is killed, so a run ends within 180 s.
RUN_BUDGET_S = 150.0
RUN_LIMIT_S = 175.0

END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "final_resi": "1",
    "err_lambda": "1",
}


class Run:
    """One benchmark run: its generated config, children and their results."""

    def __init__(self, root, workload, seed, trace, levels):
        self.root = root
        self.workload = workload
        self.levels = levels or workload.levels
        self.work = os.path.join(root, ".perfbench_work",
                                 f"{workload.name}-seed{seed}-trace{trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "run.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(seed, levels))
        self.start = time.monotonic()
        self.children = []

    def child(self, mode):
        """Run one child; returns its result dict with a `problems` list."""
        csv_path = os.path.join(self.work, "out.csv")
        result_path = os.path.join(self.work, "result.json")
        for path in (csv_path, result_path):
            if os.path.exists(path):
                os.remove(path)
        timeout = RUN_LIMIT_S - (time.monotonic() - self.start)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, self.root, mode, self.config,
                 csv_path, result_path],
                cwd=self.root, capture_output=True, text=True,
                timeout=max(timeout, 1.0))
            stderr = proc.stderr.strip()
        except subprocess.TimeoutExpired:
            proc, stderr = None, f"killed after {timeout:.0f} s"
        result = {"mode": mode, "wall_s": time.monotonic() - t0}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result.update(json.load(fh))
        if proc is None or proc.returncode != 0 or "exit_code" not in result:
            result["problems"] = [f"child failed: {stderr[-300:]}"]
        elif mode == "setup":
            result["problems"] = (
                [] if result["exit_code"] == 0 and result["setup_s"] > 0
                else [f"set-up run failed: {result['error'] or stderr[-300:]}"])
        else:
            csv_text = ""
            if os.path.exists(csv_path):
                with open(csv_path, encoding="utf-8") as fh:
                    csv_text = fh.read()
            result["problems"] = check_output(
                self.workload, self.levels, result["exit_code"], csv_text)
            if not result["problems"]:
                last = parse_csv(csv_text)[-1]
                result["final_resi"] = last["resi"]
                result["err_lambda"] = last["err_lambda"]
        self.children.append(result)
        status = "; ".join(result["problems"]) or "ok"
        print(f"# run {len(self.children)} {mode}: {result['wall_s']:.2f} s "
              f"wall, {status}", flush=True)
        return result

    def closed_loop(self, mode, seconds):
        """Children of one mode back to back for about `seconds`: at least
        one, and no further one expected to end more than half a child past
        `seconds`."""
        t0 = time.monotonic()
        done = []
        while True:
            done.append(self.child(mode))
            last = done[-1]["wall_s"]
            if (time.monotonic() - t0 + last / 2 > seconds
                    or not self.fits(last)):
                break
        return [r for r in done if not r["problems"]]

    def fits(self, estimate):
        return time.monotonic() - self.start + estimate <= RUN_BUDGET_S


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(name, unit, values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    print(f"metric {name} = {med!r} {unit} (median; quartiles {q1:.6g} .. "
          f"{q3:.6g}; n={len(values)})")
    return {"value": med, "unit": unit}


def environment(root, children):
    env = {"nproc": len(os.sched_getaffinity(0)), "git_sha": "unknown",
           "cpu_model": "unknown"}
    if os.path.exists(os.path.join(root, ".git")):
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        pass
    for child in children:
        if "env" in child:
            env.update(child["env"])
            break
    return env


def end_to_end(run, seconds):
    solves = run.closed_loop("solve", seconds)
    setups = [r["setup_s"] for r in solves]
    estimate = max(setups, default=0.0) + 2.0  # plus interpreter and imports
    while len(setups) < SETUP_SAMPLES and run.fits(estimate):
        result = run.child("setup")
        estimate = result["wall_s"]
        if result["problems"]:
            break
        setups.append(result["setup_s"])
    metrics = {}
    if solves:
        for name, unit in END_TO_END.items():
            values = setups if name == "setup_s" else [r[name] for r in solves]
            metrics[name] = summarize(name, unit, values)
    return metrics


def per_layer(run, seconds):
    untraced = run.closed_loop("solve", seconds)
    traced = run.closed_loop("traced", seconds)
    metrics = {}
    if not (untraced and traced):
        return metrics, None
    absent_hooks = sorted(set().union(*(r["absent_hooks"] for r in traced)))
    absent = absent_metrics(absent_hooks)
    if absent_hooks:
        print(f"# hooks not found: {', '.join(absent_hooks)}")
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead":
            values = [statistics.median(r["time_to_solution_s"] for r in traced)
                      / statistics.median(r["time_to_solution_s"] for r in untraced)
                      - 1.0]
        else:
            values = [r["layers"].get(name) for r in traced]
        if name in absent or None in values:
            print(f"metric {name} absent")
            continue
        metrics[name] = summarize(name, unit, values)
    spans = os.path.join(run.work, "spans.json")
    return metrics, spans if os.path.exists(spans) else None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--levels", type=int, default=None)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gpmg", "cli.py")):
        print(f"error: {root} holds no gpmg source tree (src/gpmg); run "
              "from the root of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(root, workload, args.seed, args.trace, args.levels)
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"closed loop, 1 client, one `gpmg solve` per fresh interpreter, "
          f"{args.seconds:g} s")
    print(f"# why: {workload.why}")
    if args.trace:
        metrics, spans = per_layer(run, args.seconds)
    else:
        metrics, spans = end_to_end(run, args.seconds), None

    attempted = len(run.children)
    failed = sum(1 for r in run.children if r["problems"])
    print(f"metric fail_rate = {failed / attempted!r} ratio ({failed} of "
          f"{attempted} runs failed)")
    env = environment(root, run.children)
    print("# env " + json.dumps(env, sort_keys=True))
    if spans:
        print(f"# spans {os.path.relpath(spans, root)}")
    summary = {"workload": workload.name, "seed": args.seed,
               "trace": args.trace, "env": env, "metrics": metrics,
               "children": run.children}
    with open(os.path.join(run.work, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
