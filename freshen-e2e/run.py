#!/usr/bin/env python3
"""freshen-e2e: the end-to-end benchmark of the freshend stack.

One run (what BENCHMARK.json's command does):

    python3 freshen-e2e/run.py --workload loop_events --seed 1 --seconds 20 --trace 0

builds the harness (freshen_bench) from the checkout's sources into
.bench_build/freshen-e2e, runs one pass of the workload, prints one
"metric workload value unit" line per metric and a golden line, and ends
with the result line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
its per_layer list, and the Chrome trace and layer split are written to
.bench_build/freshen-e2e/out/<workload>.{trace,layers}.json.

Other commands:

    run.py --workload all --repeats 10 --seed 1 --out a.json
        runs every workload R times, interleaved, seed S..S+R-1, and writes
        the medians, quartiles and samples (the calibration the bounds in
        BENCHMARK.json come from). With --baseline-bench PATH (another
        checkout's freshen_bench) and --baseline-out b.json, every run is
        paired with a baseline run, alternating which goes first.
    run.py compare base.json change.json
        a verdict per (workload, metric): better, worse, unchanged or
        unresolved against BENCHMARK.json's bounds for the end-to-end
        metrics; better, worse or no claim for the per-layer ones.
    run.py smoke --bench PATH
        every workload in quick mode, traced and untraced, with every
        check hard and every metric BENCHMARK.json names required.
    run.py golden
        re-records golden.json (seed 1, full size) after an intended
        behaviour change.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "freshen-e2e"
OUT = BUILD / "out"
BINARY = BUILD / "freshen_bench"
GOLDEN = HERE / "golden.json"
RUN_TIMEOUT_S = 175
# Absolute floors under the end-to-end bounds, in the metric's unit: compare
# calls a change worse only when it exceeds max(bound x parent median,
# floor). loop_events sets up in ~12 ms, whose quartiles lie 1-2 ms apart
# over ten runs from scheduler wake-ups alone; the floor keeps that noise
# from reading as a regression once a change makes set-up faster still.
# BENCHMARK.json takes no extra keys, so the floors live here.
FLOORS = {"setup_s": 0.003}


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing", 2)
    return json.loads(path.read_text())


def build():
    """Configures (once) and builds freshen_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no freshen sources next to the benchmark (CMakeLists.txt, src/)", 2)
    build_dir = ROOT / BUILD
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "freshen_bench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-8000:])
                fail("build failed: " + " ".join(step))
    return ROOT / BINARY


def run_binary(binary, workload, seed, seconds, trace, quick=False):
    """One pass; returns (exit code, parsed result or None)."""
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out-dir", str(OUT), "--quick", str(int(quick))]
    # cwd is the checkout root and --out-dir is relative, which keeps the
    # UNIX socket path short whatever the checkout's location.
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def golden_verdict(result, seconds):
    """'match', 'mismatch' or 'n/a' against golden.json (report only)."""
    if not GOLDEN.is_file():
        return "n/a"
    golden = json.loads(GOLDEN.read_text())
    entry = golden.get("workloads", {}).get(result["workload"])
    if entry is None or golden.get("seconds") != seconds or \
            entry.get("seed") != result["seed"]:
        return "n/a"
    return "match" if entry["values"] == result["golden"] else "mismatch"


def contract_line(result, names):
    """The benchmark's result line, restricted to `names`."""
    metrics = {}
    missing = []
    for name in names:
        metric = result["metrics"].get(name)
        if metric is None:
            missing.append(name)
            continue
        metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    if missing:
        print("run.py: metrics missing from the harness output: "
              + ", ".join(missing), file=sys.stderr)
    return {"correct": bool(result["correct"]) and not missing,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def metric_names(bench, trace):
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def cmd_run(args):
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    binary = build()
    code, result = run_binary(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if result is None:
        fail(f"{args.workload} produced no result (exit {code})")
    detail = ROOT / OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1) + "\n")
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    line = contract_line(result, metric_names(bench, args.trace))
    for name, metric in line["metrics"].items():
        print(f"{name} {args.workload} {metric['value']:.6g} {metric['unit']}")
    print(f"golden: {golden_verdict(result, args.seconds)}")
    print(json.dumps(line))
    return 0 if line["correct"] and code == 0 else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values):
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values), "samples": values}


def summarize_runs(bench, runs, args):
    """The repeats document for one side: every run plus, per (workload,
    metric), median, quartiles, spread and samples."""
    # Every metric the runs reported: an untraced run also computes the
    # per-layer split, which is what a claim about one layer cites.
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]
             if all(m["name"] in res["metrics"]
                    for results in runs.values() for res in results)]
    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        for metric in names:
            values = [res["metrics"][metric]["value"] for res in results]
            summary[name][metric] = summarize(values)
            summary[name][metric]["unit"] = results[0]["metrics"][metric]["unit"]
    first = next(iter(runs.values()))[0]
    return {"context": first["context"], "runs": runs,
            "seconds": args.seconds, "trace": args.trace,
            "first_seed": args.seed,
            "summary": summary,
            "attempted": {n: sum(r["attempted"] for r in rs)
                          for n, rs in runs.items()},
            "failed": {n: sum(r["failed"] for r in rs)
                       for n, rs in runs.items()}}


def cmd_repeats(args):
    bench = load_benchmark()
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    for name in workloads:
        if name not in known:
            fail(f"unknown workload {name}", 2)
    # With a baseline, both binaries run every (round, workload) back to
    # back, alternating which goes first, so a host phase that lasts minutes
    # falls on both sides of a pair instead of on one side's whole set.
    sides = [("change", build(), args.out)]
    if args.baseline_bench:
        sides.append(("base", Path(args.baseline_bench).resolve(),
                      args.baseline_out))
    runs = {side: {name: [] for name in workloads} for side, _, _ in sides}
    for r in range(args.repeats):
        order = sides if r % 2 == 0 else sides[::-1]
        for name in workloads:
            for side, binary, _ in order:
                code, result = run_binary(binary, name, args.seed + r,
                                          args.seconds, args.trace)
                if result is None or code != 0:
                    fail(f"{side} {name} seed {args.seed + r} failed "
                         f"(exit {code})")
                runs[side][name].append(result)
            print(f"round {r + 1}/{args.repeats} {name} done", file=sys.stderr)
    print("side metric workload median q1 q3 n unit spread")
    for side, _, out in sides:
        document = summarize_runs(bench, runs[side], args)
        if out:
            Path(out).write_text(json.dumps(document, indent=1) + "\n")
        for name, metrics in document["summary"].items():
            for metric, s in metrics.items():
                print(f"{side} {metric} {name} {s['median']:.6g} "
                      f"{s['q1']:.6g} {s['q3']:.6g} {s['n']} {s['unit']} "
                      f"{100 * s['spread']:.1f}%")
    return 0


def verdict(base, change, better, bound, floor=0.0):
    """The choosing-metrics rules applied to one (workload, metric).

    better: over at least ten pairs, the change wins nine in ten (ties
    count for neither) and the medians differ by more than the parent's
    IQR. With a bound (end to end) the tolerance is max(bound x the
    parent's median, floor). In this order: worse when the change's median
    is worse by more than the tolerance; better as above; unresolved when
    the parent's IQR exceeds the tolerance and not every run of the change
    reads better than every run of the parent; otherwise unchanged.
    Without a bound (per layer): worse is the mirror image of better,
    otherwise no claim.
    """
    sign = 1.0 if better == "higher" else -1.0
    a, b = base["samples"], change["samples"]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    iqr = base["q3"] - base["q1"]
    gain = sign * (change["median"] - base["median"])
    enough = len(pairs) >= 10
    won = enough and wins >= 0.9 * len(pairs) and gain > iqr
    if bound is None:
        if won:
            return "better"
        if enough and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse"
        return "no claim"
    tolerance = max(bound * abs(base["median"]), floor)
    if gain < -tolerance:
        return "worse"
    if won:
        return "better"
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if iqr > tolerance and not all_better:
        return "unresolved"
    return "unchanged"


def cmd_compare(args):
    bench = load_benchmark()
    base = json.loads(Path(args.base).read_text())["summary"]
    change = json.loads(Path(args.change).read_text())["summary"]
    print("workload metric base_median base_iqr change_median change_iqr verdict")
    for workload in bench["workloads"]:
        name = workload["name"]
        if name not in base or name not in change:
            continue
        for metric in bench["end_to_end"] + bench["per_layer"]:
            m = metric["name"]
            if m not in base[name] or m not in change[name]:
                continue
            a, b = base[name][m], change[name][m]
            print(f"{name} {m} {a['median']:.6g} {a['q3'] - a['q1']:.3g} "
                  f"{b['median']:.6g} {b['q3'] - b['q1']:.3g} "
                  f"{verdict(a, b, metric['better'], metric.get('bound'), FLOORS.get(m, 0.0))}")
    return 0


def cmd_smoke(args):
    bench = load_benchmark()
    binary = Path(args.bench) if args.bench else build()
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            known = len(problems)
            files = [ROOT / OUT / f"{workload}.{kind}.json"
                     for kind in ("trace", "layers")]
            for path in files:
                path.unlink(missing_ok=True)
            code, result = run_binary(binary, workload, 1, bench["run_seconds"],
                                      trace, quick=True)
            tag = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{tag}: no result (exit {code})")
                continue
            line = contract_line(result, metric_names(bench, trace))
            if code != 0 or not line["correct"]:
                problems.append(f"{tag}: incorrect: {result['failures']}")
            if line["failed"] != 0:
                problems.append(f"{tag}: {line['failed']} failed requests")
            if trace:
                for path in files:
                    if not path.is_file():
                        problems.append(f"{tag}: no {path.name}")
            print(f"{tag}: {'ok' if len(problems) == known else 'FAILED'}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def cmd_golden(args):
    bench = load_benchmark()
    binary = build()
    seconds = bench["run_seconds"]
    workloads = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        code, result = run_binary(binary, workload, 1, seconds, 0)
        if result is None or code != 0:
            fail(f"{workload} failed (exit {code})")
        workloads[workload] = {"seed": 1, "values": result["golden"]}
    GOLDEN.write_text(json.dumps({"seconds": seconds, "workloads": workloads},
                                 indent=1) + "\n")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "smoke", "golden"):
        command = sys.argv[1]
        parser = argparse.ArgumentParser(prog=f"run.py {command}")
        if command == "compare":
            parser.add_argument("base")
            parser.add_argument("change")
        if command == "smoke":
            parser.add_argument("--bench", default="")
        args = parser.parse_args(sys.argv[2:])
        return {"compare": cmd_compare, "smoke": cmd_smoke,
                "golden": cmd_golden}[command](args)
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--baseline-bench", default="")
    parser.add_argument("--baseline-out", default="")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    if args.repeats > 0 or args.workload == "all" or "," in args.workload:
        args.repeats = max(1, args.repeats)
        return cmd_repeats(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
