#!/usr/bin/env python3
"""The repository benchmark: the ten Table-2 designs, source text to a
verified trace digest, on three engine configurations (workloads).

Run from the root of a checkout:

  python3 perfbench/run.py --workload suite-warm --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --self-test       # tiny-scale check of the harness
  python3 perfbench/run.py --regen-goldens   # rewrite perfbench/goldens.json

Each run builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build), spawns single-threaded perfbench_suite processes
one after another, and prints one JSON object as the last stdout line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
perfbench/README.md explains the workloads, the metrics and the choices.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")

# mode: the perfbench_suite --mode; scale: testbench iterations as a share
# of the paper's cycle counts; procs: timed processes per run (cold runs
# one process per pass until the time is spent).
WORKLOADS = {
    "suite-cold": {"mode": "cold", "scale": 0.003},
    "suite-warm": {"mode": "warm", "scale": 0.002, "procs": 8},
    "suite-interp-vcd": {"mode": "interp-vcd", "scale": 0.001, "procs": 8},
}
# Every testbench at its 400-iteration floor.
SELF_TEST_SCALE = 0.0
CHILD_TIMEOUT_S = 150
COLD_MIN_PROCS = 3
# Untraced/traced process pairs of a traced suite-warm/interp-vcd run.
TRACE_PAIRS = 4


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the suite binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no LLHD sources next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_suite",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_suite")


def scale_key(scale):
    return repr(float(scale))


def goldens_text(scale, corrupt=None):
    """The goldens for one scale as perfbench_suite reads them on stdin.
    corrupt names a design whose digest is deliberately falsified."""
    with open(GOLDENS) as f:
        table = json.load(f)[scale_key(scale)]
    lines = []
    for key, g in table.items():
        digest = int(g["digest"], 16) ^ (1 if key == corrupt else 0)
        lines.append(f"{key} {digest:016x} {g['end_fs']} {g['vcd_hash']} "
                     f"{g['native_units']}")
    return "\n".join(lines) + "\n"


class Runner:
    """Spawns perfbench_suite processes for one workload run, one at a
    time, inside a private work directory of the checkout."""

    def __init__(self, binary, work, workload, scale, seed, goldens, spans):
        self.binary, self.scale, self.seed = binary, scale, seed
        self.mode, self.procs = workload["mode"], workload.get("procs")
        self.goldens, self.spans = goldens, spans
        self.tmp = os.path.join(work, "tmp")
        self.cache = os.path.join(work, "jit-cache")
        os.makedirs(self.tmp)
        os.makedirs(self.cache)
        self.env = dict(os.environ)
        for var in ("LLHD_JIT_CACHE", "LLHD_JIT_KEEP", "LLHD_JIT_CXX"):
            self.env.pop(var, None)
        self.env["TMPDIR"] = self.tmp
        self.env["LLHD_JIT_TMPDIR"] = self.tmp
        if self.mode == "warm":
            self.env["LLHD_JIT_CACHE"] = self.cache
        self.attempted = 0
        self.failed = 0

    def child(self, seconds, trace=False, min_rounds=1):
        cmd = [self.binary, f"--mode={self.mode}", f"--scale={self.scale}",
               f"--seed={self.seed}", f"--seconds={seconds}",
               f"--min-rounds={min_rounds}", f"--trace={int(trace)}"]
        if trace:
            cmd.append(f"--spans={self.spans}")
        p = subprocess.run(cmd, input=self.goldens, capture_output=True,
                           text=True, env=self.env, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            raise BenchError(f"perfbench_suite exited {p.returncode}")
        r = json.loads(lines[-1])
        self.attempted += int(r["attempted"])
        self.failed += int(r["failed"])
        for why in r["failures"]:
            log(f"failed: {why}")
        return r

    def warm_up(self):
        """Publishes every design's object into the cache directory."""
        if self.mode == "warm":
            self.child(0, min_rounds=0)

    def plain(self, seconds):
        """Untraced children for the end-to-end metrics."""
        if self.mode == "cold":
            out, start = [], time.monotonic()
            while (len(out) < COLD_MIN_PROCS
                   or time.monotonic() - start < seconds):
                out.append(self.child(0))
            return out
        return [self.child(seconds / self.procs) for _ in range(self.procs)]

    def traced(self, seconds):
        """Alternating untraced/traced children; returns both lists."""
        plain, traced = [], []
        if self.mode == "cold":
            start = time.monotonic()
            while not traced or time.monotonic() - start < seconds:
                plain.append(self.child(0))
                traced.append(self.child(0, trace=True))
        else:
            for _ in range(TRACE_PAIRS):
                plain.append(self.child(seconds / (2 * TRACE_PAIRS)))
                traced.append(self.child(seconds / (2 * TRACE_PAIRS),
                                         trace=True))
        return plain, traced


def run_phase(children):
    """Run-phase seconds: per design, the fastest run over every round of
    every child (a cold child runs one pass), summed over the designs."""
    designs = children[0]["designs"]
    return sum(min(c["designs"][d]["run_s"] for c in children)
               for d in designs)


def e2e_of(children):
    """setup_s (median over the children) and e2e_s = setup_s + run phase."""
    setup = statistics.median(c["setup_s"] for c in children)
    return setup, setup + run_phase(children)


def end_to_end(children):
    setup, e2e = e2e_of(children)
    rss = statistics.median(c["peak_rss_kb"] for c in children) / 1024.0
    return {
        "e2e_s": {"value": e2e, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "cycles_per_s": {"value": children[0]["cycles"] / run_phase(children),
                         "unit": "1/s"},
        "peak_rss_MB": {"value": rss, "unit": "MB"},
    }


def unit_of(name):
    if name.endswith("_s") or name.startswith(("run_s.", "setup_s.")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "ns" if name.startswith("sim.ns_") else "count"


def per_layer(plain, traced):
    layers = {}
    for key in traced[0]["layers"]:
        if key == "setup_spans_s":
            continue
        layers[key] = statistics.median(t["layers"][key] for t in traced)
    for d in plain[0]["designs"]:
        layers[f"setup_s.{d}"] = statistics.median(
            c["designs"][d]["setup_s"] for c in plain)
        layers[f"run_s.{d}"] = min(c["designs"][d]["run_s"] for c in plain)
    setup_u, e2e_u = e2e_of(plain)
    _, e2e_t = e2e_of(traced)
    spans = statistics.median(t["layers"]["setup_spans_s"] for t in traced)
    layers["trace.overhead_s"] = e2e_t - e2e_u
    layers["trace.unaccounted_s"] = setup_u - spans
    return {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}


def run_workload(binary, name, seed, seconds, trace, scale=None,
                 corrupt=None):
    """One benchmark run; returns the result object."""
    w = WORKLOADS[name]
    scale = w["scale"] if scale is None else scale
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        r = Runner(binary, work, w, scale, seed, goldens_text(scale, corrupt),
                   os.path.join(build_dir(), f"spans-{name}.jsonl"))
        r.warm_up()
        if trace:
            plain, traced = r.traced(seconds)
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(r.plain(seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": r.failed == 0, "attempted": r.attempted,
            "failed": r.failed, "metrics": metrics}


def regen_goldens(binary):
    scales = sorted({w["scale"] for w in WORKLOADS.values()}
                    | {SELF_TEST_SCALE})
    table = {}
    for scale in scales:
        p = subprocess.run([binary, "--regen", f"--scale={scale}"],
                           capture_output=True, text=True, check=True)
        table[scale_key(scale)] = json.loads(p.stdout.strip().splitlines()[-1])
    with open(GOLDENS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {GOLDENS}")


def self_test(binary):
    """Tiny-scale harness check: every metric named in BENCHMARK.json is
    emitted on every workload, every operation matches its golden under
    two seeds, and a falsified golden is counted as a failed operation
    rather than crashing the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for i, name in enumerate(WORKLOADS):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run_workload(binary, name, seed=11 + i + trace, seconds=1,
                             trace=trace, scale=SELF_TEST_SCALE)
            want = {m["name"] for m in spec[kind]}
            got = set(r["metrics"])
            if want != got:
                problems.append(f"{name} trace={trace}: missing "
                                f"{sorted(want - got)} extra {sorted(got - want)}")
            if not r["correct"] or r["failed"]:
                problems.append(f"{name} trace={trace}: {r['failed']} of "
                                f"{r['attempted']} operations failed")
    r = run_workload(binary, "suite-interp-vcd", seed=5, seconds=0.5,
                     trace=0, scale=SELF_TEST_SCALE, corrupt="fir")
    if r["correct"] or not 0 < r["failed"] < r["attempted"]:
        problems.append(f"falsified golden not reported: {r['failed']} of "
                        f"{r['attempted']} failed")
    for p in problems:
        log(f"self-test: {p}")
    log("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--regen-goldens", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.regen_goldens):
        ap.error("one of --workload, --self-test, --regen-goldens is needed")
    try:
        binary = build()
        if args.regen_goldens:
            regen_goldens(binary)
            return 0
        if args.self_test:
            return self_test(binary)
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
