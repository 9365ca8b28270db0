"""Record benchmark runs of a gpmg source tree in a committed BENCH file.

usage: python3 tools/bench_record.py --workload NAME --seeds S [S ...]
                                     --seconds T --trace 0|1 [--root DIR]
                                     [--parent DIR [--parent-sha SHA]]

Runs `python3 perfbench/run.py` once per seed in the source tree ROOT
(default: the current directory), reads each run's last JSON line and its
`.perfbench_work/<workload>-seed<S>-trace<T>/summary.json`, and appends one
record to `BENCH_<workload>_<YYYYMMDD>.json` in the current directory: the
machine and library environment with ROOT's git sha, whether ROOT had
uncommitted changes under src/ or perfbench/, every run's metric
medians, and the median of those over the seeds. Records accumulate.

With --parent DIR, each seed is run in the parent tree DIR and in ROOT
back to back, the parent first on the 1st, 3rd, ... seed and ROOT first on
the others, so host drift hits both sides of a pair alike. Both records
are appended, the parent's first, and for each metric that ROOT's
BENCHMARK.json lists, the ROOT/parent ratio of every pair is printed with
the number of pairs in which ROOT is better. A parent tree made by `git
archive` has no .git, so perfbench records its sha as "unknown";
--parent-sha SHA writes the parent's commit into its record's env instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


# The program a record measures: the package and the benchmark that runs
# it. Other tracked files, the BENCH files this tool appends to among them,
# do not make a tree dirty.
PROGRAM_PATHS = ("src", "perfbench")


def _dirty(root):
    """Whether ROOT's tracked program files differ from its HEAD (None: no
    git)."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--",
             *PROGRAM_PATHS],
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


def record(root, workload, seeds, seconds, trace, runs, sha=None):
    """The BENCH record of runs, one per seed, made in the tree root; sha,
    if given, is root's commit, in place of the one perfbench read."""
    names = [n for n in runs[0]["metrics"]
             if all(n in r["metrics"] for r in runs)]
    env = dict(runs[0]["env"])
    if sha is not None:
        env["git_sha"] = sha
    return {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # perfbench's env records the git sha; a dirty tree is not that sha
        "git_dirty": _dirty(root),
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "seeds": list(seeds),
        "env": env,
        "medians": {
            n: {"value": statistics.median(r["metrics"][n] for r in runs),
                "unit": runs[0]["units"][n]}
            for n in names
        },
        "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed",
                                    "metrics")} for r in runs],
    }


def paired_runs(parent, root, workload, seeds, seconds, trace):
    """(parent runs, root runs), one pair per seed, the order of each
    pair alternating from parent first."""
    runs = {parent: [], root: []}
    for i, seed in enumerate(seeds):
        for tree in ((parent, root) if i % 2 == 0 else (root, parent)):
            runs[tree].append(run_seed(tree, workload, seed, seconds, trace))
    return runs[parent], runs[root]


def metric_directions(root):
    """{metric: "lower" | "higher"} from root's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def pair_summary(parent_rec, change_rec, better):
    """One line per metric in `better` that both records hold: the
    change/parent ratio of each seed's pair and how many pairs improved."""
    lines = []
    pairs = list(zip(parent_rec["runs"], change_rec["runs"]))
    for name, direction in better.items():
        values = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
                  if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        ratios = " ".join(f"{c / p:.3f}" if p else "n/a" for p, c in values)
        improved = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in values)
        lines.append(f"{name}: change/parent {ratios}; better in "
                     f"{improved} of {len(values)} pairs")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--root", default=".",
                   help="source tree to benchmark (default: current dir)")
    p.add_argument("--parent", default=None,
                   help="parent source tree to run in pairs with ROOT")
    p.add_argument("--parent-sha", default=None,
                   help="the parent tree's commit, for its record's env")
    args = p.parse_args(argv)
    if args.parent_sha is not None and args.parent is None:
        print("error: --parent-sha needs --parent", file=sys.stderr)
        return 2

    trees = [os.path.abspath(args.root)]
    if args.parent is not None:
        trees.insert(0, os.path.abspath(args.parent))
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            print(f"error: {tree} holds no perfbench/run.py", file=sys.stderr)
            return 2
    spec = (args.workload, args.seeds, args.seconds, args.trace)
    try:
        if args.parent is None:
            runs = [[run_seed(trees[0], args.workload, s, args.seconds,
                              args.trace) for s in args.seeds]]
        else:
            better = metric_directions(trees[1])
            runs = paired_runs(*trees, *spec)
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    shas = [args.parent_sha, None] if args.parent is not None else [None]
    recs = [record(tree, *spec, tree_runs, sha)
            for tree, tree_runs, sha in zip(trees, runs, shas)]
    out = f"BENCH_{args.workload}_{time.strftime('%Y%m%d', time.gmtime())}.json"
    data = {"workload": args.workload, "records": []}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
    data["records"].extend(recs)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for rec in recs:
        for name, m in rec["medians"].items():
            print(f"{name} = {m['value']!r} {m['unit']}")
        print(f"# {rec['env']['git_sha'][:12]} appended to {out}")
    if args.parent is not None:
        for line in pair_summary(*recs, better):
            print(line)
    return 0 if all(r["correct"] for rec in recs for r in rec["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
