#!/usr/bin/env python3
"""End-to-end benchmark: builds fuser_bench and runs its workloads.

    python3 bench/e2e/run.py                      # all workloads, default seed
    python3 bench/e2e/run.py --workload serve_tcp --seed 7 --seconds 20
    python3 bench/e2e/run.py --trace=DIR          # plus a traced rerun
    python3 bench/e2e/run.py --smoke              # ~1/50 scale, same checks

Each workload runs in its own fuser_bench process. Metric lines go to
stderr; the last stdout line is one JSON object with "correct",
"attempted", "failed" and "metrics": the end-to-end metrics, or with
--trace the per-layer ones. The exit code is non-zero when any output was
wrong. See bench/e2e/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["fuse_batch", "serve_tcp", "ingest_serve"]
DEFAULT_SEED = 1
HOLDOUT_SEED = 7
# fuse_batch score fingerprints (FNV-1a over the five methods' scores):
# any change to a score changes them.
FUSE_FINGERPRINTS = {
    DEFAULT_SEED: "3e5efc45df675f64",
    HOLDOUT_SEED: "daf0a9ac26a472e8",
}
CHILD_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e")


def build(out_dir):
    """Configures and builds fuser_bench and fuser_cli (incrementally)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "--target", "fuser_bench",
              "-j", jobs]]
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(step))
    return (os.path.join(out_dir, "fuser_bench"),
            os.path.join(out_dir, "fuser", "fuser_cli"))


def run_workload(binary, cli, workload, args, work_dir, trace):
    """Runs one workload in its own process; returns its JSON result."""
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--work-dir=" + work_dir,
           "--cli=" + cli]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    # A session of its own, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("%s timed out after %d s" % (workload, CHILD_TIMEOUT_S))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    expected = FUSE_FINGERPRINTS.get(args.seed)
    if (workload == "fuse_batch" and not args.smoke and expected and
            result["fingerprint"] != expected):
        result["failed"] += 1
        result["correct"] = False
        result["failures"].append("score fingerprint %s, expected %s" %
                                  (result["fingerprint"], expected))
        log("%-13s FAILED: %s" % (workload, result["failures"][-1]))
    return result


def write_overhead(work_dir, untraced, traced):
    """Adds the untraced end-to-end values and the tracing overhead
    (traced minus untraced) to the summary fuser_bench wrote."""
    path = os.path.join(work_dir, "summary.json")
    with open(path) as f:
        summary = json.load(f)
    summary["end_to_end_untraced"] = untraced["end_to_end"]
    summary["tracing_overhead"] = {
        name: {"value": traced["end_to_end"][name]["value"] - m["value"],
               "unit": m["unit"]}
        for name, m in untraced["end_to_end"].items()}
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    for name, m in summary["tracing_overhead"].items():
        log("%-13s overhead   %-28s %16.6f %s" %
            (summary["workload"], name, m["value"], m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; holdout %d)" %
                        (DEFAULT_SEED, HOLDOUT_SEED))
    parser.add_argument("--seconds", type=float, default=20,
                        help="length of the measured phase")
    parser.add_argument("--trace", default="0",
                        help="0, 1, or a directory: rerun traced and write "
                        "trace.json and summary.json per workload there")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/50 scale inputs, same code paths and checks")
    parser.add_argument("--details", action="store_true",
                        help="also report each workload's own metrics "
                        "(read_p99_us_hi, commit_p99_ms, read_rps, ...)")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1

    out_dir = build_dir()
    binary, cli = build(out_dir)
    trace_dir = None
    if args.trace not in ("0", ""):
        trace_dir = os.path.join(out_dir, "trace") if args.trace == "1" \
            else os.path.abspath(args.trace)

    results = {}
    start = time.time()
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(binary, cli, workload, args,
                              os.path.join(out_dir, "work", workload), False)
        if trace_dir:
            work_dir = os.path.join(trace_dir, workload)
            traced = run_workload(binary, cli, workload, args, work_dir, True)
            write_overhead(work_dir, result, traced)
            result["layers"] = traced["layers"]
            result["correct"] = result["correct"] and traced["correct"]
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
        results[workload] = result
    log("total %.1f s" % (time.time() - start))

    group = "layers" if trace_dir else "end_to_end"
    single = len(results) == 1

    def metrics(workload, result):
        prefix = "" if single else workload + "/"
        chosen = dict(result["details"]) if args.details else {}
        chosen.update(result[group])
        return {prefix + name: {"value": m["value"], "unit": m["unit"]}
                for name, m in chosen.items()}

    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {},
    }
    for workload, result in results.items():
        summary["metrics"].update(metrics(workload, result))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
