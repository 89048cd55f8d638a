#!/usr/bin/env python3
"""Paired, interleaved appbench runs of two git revisions.

Run from the repository root:

    scripts/appbench_ab.py --base HEAD~1 --head WORKTREE \\
        --workloads ledger,orderbook,jobs_wal --seeds 1-10 --seconds 30

Each side is exported into its own directory under --scratch (`git archive`
of the revision; WORKTREE copies this checkout's tracked and untracked,
non-ignored files, uncommitted edits included) and builds its own appbench
there. For every seed and workload the script runs `appbench/run.py` once
per side, alternating which side goes first, so both sides see the same
drift of the machine. It then prints, per workload and metric, each side's
median and quartiles, the pairs the head side won (ties count for neither),
the base side's interquartile range (IQR) and a verdict:

  gain        head wins >= 9/10 of the pairs and the medians differ by more
              than the base IQR, in the better direction
  regression  end-to-end metric: the head median is worse than the base
              median by more than the bound in BENCHMARK.json
  unresolved  end-to-end metric: the base runs' own spread (max/min - 1)
              exceeds the bound, and not every head run beats every base run
  unchanged   end-to-end metric: none of the above
  worse       per-layer metric: the gain rule with the sides swapped
  -           per-layer metric: neither gain nor worse

Failed operations and the `correct` flag are checked on every run.
--json writes every run's result for later records. Nothing under appbench/
is modified; the metric directions and bounds are read from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, **kw).stdout


def export(rev, dest):
    """Materialize `rev` (or this checkout for WORKTREE) at `dest`."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == WORKTREE:
        names = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").decode().split("\0")
        for name in filter(None, names):
            src = os.path.join(ROOT, name)
            if not os.path.isfile(src):
                continue  # deleted but not yet staged
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return "worktree of " + git("rev-parse", "HEAD").decode().strip()
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("appbench_ab: git archive %s failed" % rev)
    return sha


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "appbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.exit("appbench_ab: %s failed in %s" % (" ".join(cmd[1:]), tree))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(base, head, better, bound):
    """The choosing-metrics rule for one workload x metric (see __doc__)."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(base)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    gap = sign * (mh - mb)  # > 0: head better
    if wins >= 0.9 * n and gap > iqr:
        word = "gain"
    elif bound is None:
        word = "worse" if losses >= 0.9 * n and -gap > iqr else "-"
    elif mb != 0 and -gap / abs(mb) > bound:
        word = "regression"
    elif (min(base) > 0 and max(base) / min(base) - 1 > bound
          and not all(sign * (h - b) > 0 for h in head for b in base)):
        word = "unresolved"
    else:
        word = "unchanged"
    return wins, iqr, word


def fmt(x):
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision (parent)")
    ap.add_argument("--head", default=WORKTREE,
                    help="git revision, or WORKTREE for this checkout")
    ap.add_argument("--workloads", default="ledger,orderbook,jobs_wal")
    ap.add_argument("--seeds", default="1-10",
                    help="e.g. 1-10 or 1,2,7; one pair per seed per workload")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True,
                    help="directory for the two exported trees")
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    trees, revs = {}, {}
    for side, rev in (("base", args.base), ("head", args.head)):
        trees[side] = os.path.join(os.path.abspath(args.scratch), side)
        revs[side] = export(rev, trees[side])
        print("%s: %s -> %s" % (side, rev, revs[side]), file=sys.stderr)
        # Build (and warm) each tree before any timed run.
        run_once(trees[side], workloads[0], seeds[0], 1, args.trace)

    runs = {w: {"base": [], "head": []} for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads:
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                r = run_once(trees[side], w, seed, args.seconds, args.trace)
                r["seed"] = seed
                runs[w][side].append(r)
                print("pair %d/%d %s seed %d %s: txn_per_s=%s failed=%d" % (
                    i + 1, len(seeds), w, seed, side,
                    fmt(r["metrics"].get("txn_per_s", {}).get("value", 0)),
                    r["failed"]), file=sys.stderr)

    for w in workloads:
        base, head = runs[w]["base"], runs[w]["head"]
        print("\n== %s: %d pairs, %d s runs, trace %d ==" % (
            w, len(seeds), args.seconds, args.trace))
        for side, rs in (("base", base), ("head", head)):
            print("%s: failed ops %d of %d attempted, correct %s" % (
                side, sum(r["failed"] for r in rs),
                sum(r["attempted"] for r in rs),
                all(r["correct"] for r in rs)))
        print("%-28s %24s %24s %6s %9s  %s" % (
            "metric", "base med [q1, q3]", "head med [q1, q3]", "won",
            "base IQR", "verdict"))
        for name in base[0]["metrics"]:
            if name not in spec:
                continue
            b = [r["metrics"][name]["value"] for r in base]
            h = [r["metrics"][name]["value"] for r in head]
            wins, iqr, word = verdict(b, h, *spec[name])
            cells = []
            for xs in (b, h):
                q1, q3 = quartiles(xs)
                cells.append("%s [%s, %s]" % (
                    fmt(statistics.median(xs)), fmt(q1), fmt(q3)))
            print("%-28s %24s %24s %3d/%-2d %9s  %s" % (
                name, cells[0], cells[1], wins, len(b), fmt(iqr), word))

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": args.base, "head": args.head, "revs": revs,
                       "seconds": args.seconds, "trace": args.trace,
                       "seeds": seeds, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
