#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary (perfbench/CMakeLists.txt, linking the
checkout's own spnerf_core) into .bench_build/, then runs one workload in a
fresh, empty asset store and prints its result:

    python3 perfbench/run.py --workload orbit-sparse --seed 1 \
        --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (and writes the run's spans to
.bench_build/traces/<workload>-seed<seed>.json). The workload constants
(scenes, rates, image sizes, deadline bands, limits, PSNR floors) live in
perfbench/spec.json. The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only for
a correct run.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def die(message):
    """Exits without a result: the benchmark could not run at all."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the perfbench binary; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no library sources at the checkout root (CMakeLists.txt, src/)")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Own process group, so a timeout stops the compilers too.
        try:
            proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    start_new_session=True)
        except OSError as e:
            die(f"build failed: {e}")
        try:
            code = proc.wait(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die("build timed out")
        if code != 0:
            die(f"build failed: {' '.join(cmd)}")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           check=False)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def failed_result(attempted=1):
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    workloads = spec["workloads"]
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads)}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build()

    os.makedirs(BUILD_ROOT, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=BUILD_ROOT)
    trace_out = ""
    if args.trace:
        os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
        trace_out = os.path.join(BUILD_ROOT, "traces",
                                 f"{args.workload}-seed{args.seed}.json")
    cmd = [BINARY, args.workload, f"seed={args.seed}",
           f"seconds={args.seconds}", f"trace={args.trace}", f"store={store}",
           f"trace_out={trace_out}"]
    for key, value in workloads[args.workload]["constants"].items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        cmd.append(f"{key}={value}")
    # The run's asset store is fresh and empty, and is removed afterwards:
    # set-up is a cold build every run and no run sees another's disk state.
    env = dict(os.environ, SPNERF_ASSET_CACHE=store)

    result = None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
    finally:
        shutil.rmtree(store, ignore_errors=True)

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    elif lines:
        print(lines[-1])
    if proc.returncode != 0:
        # A crash (for example an abort) is a failed run, never retried.
        print(f"perfbench: perfbench exited with code {proc.returncode}")
    print("run: " + json.dumps({"commit": git_commit(),
                                "workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds,
                                "trace": args.trace}))

    if result is None:
        result = failed_result()
    else:
        metrics = {}
        for m in wanted:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                print(f"perfbench: metric {m['name']} missing or with the "
                      f"wrong unit")
                result["correct"] = False
                continue
            metrics[m["name"]] = got
        result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
