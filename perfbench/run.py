#!/usr/bin/env python3
"""Serving benchmark: build, run one workload, print the result line.

    python3 perfbench/run.py --workload live_nyt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload frontend_yago --smoke
    python3 perfbench/run.py spread --runs 10
    python3 perfbench/run.py fingerprint --seed 1

A run builds the `topk` library and the benchmark binary in Release with
the repository's default options into .bench_build/ (the first run
compiles; later runs only check), runs the workload, checks its input
fingerprint against perfbench/fingerprints.json for the seeds recorded
there, and prints the binary's report followed by one JSON line with the
metrics BENCHMARK.json names: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1. It exits non-zero, without a result line,
when the sources are missing, the build fails, the fingerprint differs
or the binary fails; it exits 1 after the result line on a wrong answer.

`spread` runs every workload in two interleaved sets of runs, each run
with its own seed, and prints for every end-to-end metric each set's
median, quartiles and spread, and whether the sets agree within the
metric's bound. `fingerprint` prints the input fingerprints of a seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# spread: set A runs seeds 100, 101, ...; set B seeds 1100, 1101, ...
SPREAD_SEED_BASE = 100
# Workloads the binary runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ["live_nyt", "frontend_yago", "snapshot_nyt"]


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then (re)builds; all output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"library sources not found under {ROOT}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = [
            "cmake", "-S", str(HERE), "-B", str(out),
            "-DCMAKE_BUILD_TYPE=Release",
            "-DTOPK_BUILD_TESTS=OFF",
            "-DTOPK_BUILD_BENCHMARKS=OFF",
            "-DTOPK_BUILD_EXAMPLES=OFF",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(2, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail(2, "build failed")
    return out / "perfbench"


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, smoke=False,
               fingerprint_only=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(build_dir() / "perfbench-work")]
    if smoke:
        cmd.append("--smoke")
    if fingerprint_only:
        cmd.append("--fingerprint-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(2, f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(2, f"{workload} exited with code {proc.returncode}")
    return proc.returncode, lines


def check_fingerprint(workload, seed, smoke, lines):
    got = next((l.split()[1] for l in lines if l.startswith("fingerprint ")),
               None)
    if got is None:
        fail(3, "the run printed no input fingerprint")
    if smoke:
        return got
    with open(HERE / "fingerprints.json") as f:
        recorded = json.load(f)
    want = recorded.get(str(seed), {}).get(workload)
    if want is not None and want != got:
        fail(3, f"{workload} seed {seed}: input fingerprint {got} differs "
                f"from the recorded {want}; the generated inputs changed")
    return got


def result_line(report, specs):
    """The binary's report narrowed to the metrics BENCHMARK.json names."""
    metrics = {}
    for spec in specs:
        m = report["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            fail(4, f"the run did not report {spec['name']} in {spec['unit']}")
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_once(binary, bench, workload, seed, seconds, trace, smoke=False):
    code, lines = run_binary(binary, workload, seed, seconds, trace, smoke)
    check_fingerprint(workload, seed, smoke, lines)
    report = json.loads(lines[-1])
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    return code, lines[:-1], report, result_line(report, specs)


def cmd_run(args):
    bench = load_benchmark()
    if args.workload not in WORKLOADS:
        fail(2, f"unknown workload {args.workload!r}")
    binary = build()
    code, human, _, line = run_once(binary, bench, args.workload, args.seed,
                                    args.seconds, args.trace == 1, args.smoke)
    print("\n".join(human))
    print(json.dumps(line))
    sys.exit(code)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args):
    bench = load_benchmark()
    binary = build()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]
    extra = args.extra.split(",") if args.extra else []
    results = {w: ([], []) for w in workloads}
    for i in range(args.runs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for s in order:
            for w in workloads:
                seed = SPREAD_SEED_BASE + 1000 * s + i
                code, _, report, _ = run_once(binary, bench, w, seed,
                                              args.seconds, False)
                if code != 0 or not report["correct"]:
                    fail(1, f"{w} seed {seed}: wrong answer")
                results[w][s].append(report)
                print(f"run {i} set {'AB'[s]} {w} seed {seed} done",
                      file=sys.stderr, flush=True)
    ok = True
    print(f"{args.runs} runs per set, {args.seconds} s each; spread = "
          "(q3 - q1) / median; agree = both spreads within the bound "
          "(setup_s exempt) and |median B - median A| <= bound x median A")
    print()
    print("| workload | metric | bound | A median | A q1..q3 | A spread | "
          "B median | B q1..q3 | B spread | agree |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        names = [(s["name"], s["unit"], s["bound"]) for s in specs]
        names += [(n, "", None) for n in extra]
        for name, unit, bound in names:
            sets = []
            for s in (0, 1):
                vals = [r["metrics"][name]["value"]
                        for r in results[w][s] if name in r["metrics"]]
                if not vals:
                    break
                q1, med, q3 = quartiles(vals)
                sets.append((med, q1, q3, (q3 - q1) / med if med else 0.0))
            if len(sets) < 2:
                continue
            agree = "-"
            if bound is not None:
                spread_ok = name == "setup_s" or all(
                    x[3] <= bound for x in sets)
                agree_ok = spread_ok and \
                    abs(sets[1][0] - sets[0][0]) <= bound * sets[0][0]
                agree = "yes" if agree_ok else "NO"
                ok = ok and agree_ok
            cells = [w, f"{name} ({unit})" if unit else name,
                     "-" if bound is None else f"{bound:g}"]
            for med, q1, q3, spread in sets:
                cells += [f"{med:.4g}", f"{q1:.4g}..{q3:.4g}",
                          f"{spread:.3f}"]
            print("| " + " | ".join(cells + [agree]) + " |")
        shares = {sum(r["failed"] for r in results[w][s]) /
                  sum(r["attempted"] for r in results[w][s]) for s in (0, 1)}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between the sets: {shares}")
    sys.exit(0 if ok else 1)


def cmd_fingerprint(args):
    binary = build()
    for w in WORKLOADS:
        _, lines = run_binary(binary, w, args.seed, 0, False,
                              fingerprint_only=True)
        got = next(l.split()[1] for l in lines if l.startswith("fingerprint "))
        print(f"{w} seed {args.seed}: {got}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("spread", "fingerprint"):
        parser = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "spread":
            parser.add_argument("--runs", type=int, default=10)
            parser.add_argument("--seconds", type=int,
                                default=load_benchmark()["run_seconds"])
            parser.add_argument("--workloads", default="")
            parser.add_argument("--extra", default="",
                                help="comma-separated metrics outside "
                                     "BENCHMARK.json to summarize too")
            cmd_spread(parser.parse_args(sys.argv[2:]))
        else:
            parser.add_argument("--seed", type=int, default=1)
            cmd_fingerprint(parser.parse_args(sys.argv[2:]))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a 1 s run, every check kept")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1
    cmd_run(args)


if __name__ == "__main__":
    main()
