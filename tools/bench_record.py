"""Record benchmark runs of a gpmg source tree in a committed BENCH file.

usage: python3 tools/bench_record.py --workload NAME --seeds S [S ...]
                                     --seconds T --trace 0|1 [--root DIR]

Runs `python3 perfbench/run.py` once per seed in the source tree ROOT
(default: the current directory), reads each run's last JSON line and its
`.perfbench_work/<workload>-seed<S>-trace<T>/summary.json`, and appends one
record to `BENCH_<workload>_<YYYYMMDD>.json` in the current directory: the
machine and library environment with ROOT's git sha, whether ROOT had
uncommitted changes, every run's metric medians, and the median of those
over the seeds. Records accumulate, so running the parent commit's tree
and then the change's writes a before/after pair into one file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def _dirty(root):
    """Whether ROOT's tracked files differ from its HEAD (None: no git)."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def run_seed(root, workload, seed, seconds, trace):
    """One perfbench run; returns its record, or raises RuntimeError."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"seed {seed}: perfbench printed nothing "
                           f"(exit {proc.returncode}): {proc.stderr[-300:]}")
    result = json.loads(lines[-1])
    summary_path = os.path.join(root, ".perfbench_work",
                                f"{workload}-seed{seed}-trace{trace}",
                                "summary.json")
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "env": summary["env"],
    }


def record(root, workload, seeds, seconds, trace):
    runs = [run_seed(root, workload, s, seconds, trace) for s in seeds]
    names = [n for n in runs[0]["metrics"]
             if all(n in r["metrics"] for r in runs)]
    return {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # perfbench's env records the git sha; a dirty tree is not that sha
        "git_dirty": _dirty(root),
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "seeds": list(seeds),
        "env": runs[0]["env"],
        "medians": {
            n: {"value": statistics.median(r["metrics"][n] for r in runs),
                "unit": runs[0]["units"][n]}
            for n in names
        },
        "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed",
                                    "metrics")} for r in runs],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--root", default=".",
                   help="source tree to benchmark (default: current dir)")
    args = p.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        print(f"error: {root} holds no perfbench/run.py", file=sys.stderr)
        return 2
    try:
        rec = record(root, args.workload, args.seeds, args.seconds,
                     args.trace)
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = f"BENCH_{args.workload}_{time.strftime('%Y%m%d', time.gmtime())}.json"
    data = {"workload": args.workload, "records": []}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
    data["records"].append(rec)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, m in rec["medians"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"# {rec['env']['git_sha'][:12]} appended to {out}")
    return 0 if all(r["correct"] for r in rec["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
