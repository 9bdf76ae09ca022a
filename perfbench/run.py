#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # tiny sizes, all checks

Run from the repository root. The benchmark binary is built from source
with cargo into $CARGO_TARGET_DIR (default .bench_build). Workload sizes,
open-loop rates, rebalance cadences and default generator seeds come from
perfbench/workloads.json; how --seed varies each workload's inputs is in
perfbench/README.md. The last line of standard output is the result
object; the exit code is 0 only when a result was printed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "ltc-perfbench")


def run_once(binary, target, config, name, seed, seconds, trace, smoke,
             gen_seed=None):
    """Runs one workload once and returns its validated result object."""
    spec = config["workloads"][name]
    reps = max(1, round(spec["reps"] * seconds / config["reference_seconds"]))
    setups = config["setups"]
    sizes = {k: spec[k] for k in ("warmup", "closed", "open", "rebalance_every", "quality")}
    if smoke:
        divide = config["smoke"]["divide"]
        sizes = {k: max(1, v // divide) if v else 0 for k, v in sizes.items()}
        reps, setups = config["smoke"]["reps"], config["smoke"]["setups"]
    if gen_seed is None:
        gen_seed = spec["gen_seed"]
    workdir = os.path.join(target, "perfbench-work", f"{name}-{seed}-{os.getpid()}")
    cmd = [binary, "--workload", name, "--gen-seed", str(gen_seed), "--seed", str(seed),
           "--reps", str(reps), "--setups", str(setups),
           "--warmup", str(sizes["warmup"]), "--closed", str(sizes["closed"]),
           "--open", str(sizes["open"]), "--rate", str(spec["rate"]),
           "--rebalance-every", str(sizes["rebalance_every"]),
           "--quality", str(sizes["quality"]),
           "--trace", str(trace), "--workdir", workdir]
    spans = os.path.join(target, "perfbench-spans", f"{name}.tsv")
    if trace:
        cmd += ["--spans-out", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"{name} exited with code {done.returncode}")
    result = validate(lines[-1], expected_metrics(trace))
    if smoke and trace:
        check_spans(spans)
    return result


def expected_metrics(trace):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def validate(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"the result line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("`correct` is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"`{key}` is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
    return result


def check_spans(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in f]
    if header != ["rung", "kind", "index", "start_ns", "end_ns"] or not rows:
        fail(f"{path} is not a span table")
    for row in rows:
        if len(row) != 5 or int(row[4]) < int(row[3]):
            fail(f"{path}: bad span {row}")
    rungs = {row[0] for row in rows}
    if rungs != {"service", "durable", "remote"}:
        fail(f"{path}: rungs {sorted(rungs)}")


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    # BENCHMARK.json lists the workloads whose figures are steady enough to
    # gate on; workloads.json may hold more that run by name.
    names = list(config["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-seed", type=int,
                    help="generator seed, overriding the workload's default")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload, traced and untraced, at tiny sizes")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload or --smoke is required")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target)

    if args.smoke:
        for name in names:
            for trace in (0, 1):
                result = run_once(binary, target, config, name, args.seed,
                                  args.seconds, trace, smoke=True)
                if not result["correct"] or result["failed"]:
                    fail(f"smoke: {name} trace={trace} failed its output checks")
                print(f"smoke: {name} trace={trace} ok "
                      f"({len(result['metrics'])} metrics, {result['attempted']} ops)")
        print(json.dumps({"smoke": "ok", "workloads": names}))
        return

    if args.workload == "all":
        results = {}
        for name in names:
            results[name] = run_once(binary, target, config, name, args.seed,
                                     args.seconds, args.trace, smoke=False)
        for name, result in results.items():
            for metric, m in result["metrics"].items():
                print(f"{name}/{metric:<34} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps(results))
        return

    result = run_once(binary, target, config, args.workload, args.seed,
                      args.seconds, args.trace, smoke=False, gen_seed=args.gen_seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
