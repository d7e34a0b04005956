#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: this checkout against a revision.

Run from anywhere in a checkout:

  python3 bench/ab.py HEAD~1 --workload suite-cold --pairs 10 --seconds 15

<rev> (the parent) is checked out once into a git worktree under the
build directory ($CARGO_TARGET_DIR, default .bench_build) and reused by
later calls; `git worktree remove --force <path>` drops it. Each side
runs its own perfbench/run.py with --trace 0, so each builds and measures
its own sources; this script changes nothing under perfbench/. One
untimed run per side builds it and checks its goldens first. Then the
pairs run one after another, parent first in even pairs and the change
first in odd ones, every run with the same seed.

For each end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the median of the paired change/parent ratios and
the pairs the change won. A gain is clear when the change won at least
nine pairs in ten and its median beats the parent's by more than the
distance between the parent's quartiles. The last stdout line is the
same report as JSON.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree(rev):
    """The checkout of rev under the build directory, made on first use."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.join(ROOT, target, "ab", sha[:12])
    if not os.path.isdir(path):
        log(f"ab: checking out {sha[:12]} into {path}")
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def perfbench(checkout, args, seconds):
    """One perfbench/run.py --trace 0 run in checkout; its result object."""
    env = dict(os.environ)
    # Relative, so each side builds inside its own checkout.
    env["CARGO_TARGET_DIR"] = ".bench_build"
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"ab: perfbench failed in {checkout}")
    r = json.loads(lines[-1])
    if not r["correct"] or r["failed"]:
        log(f"ab: {checkout}: {r['failed']} of {r['attempted']} "
            "operations failed")
    return r


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def compare(spec, parent, change):
    """Per end-to-end metric: each side's median and quartiles, the
    median paired ratio, the wins and whether the gain is clear."""
    pairs = len(parent)
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        gain = (statistics.median(p) - statistics.median(c)) * (
            1 if lower else -1)
        pq = quartiles(p)
        out[name] = {
            "parent": statistics.median(p),
            "parent_q": pq,
            "change": statistics.median(c),
            "change_q": quartiles(c),
            "ratio": statistics.median(b / a for a, b in zip(p, c)),
            "wins": wins,
            "pairs": pairs,
            "clear_gain": (wins >= math.ceil(0.9 * pairs)
                           and gain > pq[1] - pq[0]),
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the parent revision, e.g. HEAD~1")
    ap.add_argument("--workload", default="suite-cold")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    sha, base = worktree(args.rev)
    sides = {"parent": base, "change": ROOT}
    for side, path in sides.items():
        log(f"ab: building and checking the {side} ({path})")
        perfbench(path, args, 0)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(perfbench(sides[side], args, args.seconds))
        e2e = [runs[s][-1]["metrics"]["e2e_s"]["value"] for s in sides]
        log(f"ab: pair {i + 1}/{args.pairs}: e2e_s parent {e2e[0]:.4g} "
            f"change {e2e[1]:.4g}")

    report = compare(spec, runs["parent"], runs["change"])
    print(f"{args.workload}: change vs {sha[:12]}, {args.pairs} pairs of "
          f"{args.seconds:g} s")
    print(f"{'metric':<13} {'parent [q1, q3]':>34} {'change [q1, q3]':>34} "
          f"{'ratio':>6} {'wins':>5}  clear gain")
    for name, r in report.items():
        side = {s: f"{r[s]:.4g} [{r[s + '_q'][0]:.4g}, {r[s + '_q'][1]:.4g}]"
                for s in ("parent", "change")}
        print(f"{name:<13} {side['parent']:>34} {side['change']:>34} "
              f"{r['ratio']:>6.3f} {r['wins']:>2}/{r['pairs']:<2}  "
              f"{'yes' if r['clear_gain'] else 'no'}")
    failed = sum(r["failed"] for side in runs.values() for r in side)
    print(json.dumps({"workload": args.workload, "parent": sha,
                      "pairs": args.pairs, "seconds": args.seconds,
                      "failed": failed, "metrics": report}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
