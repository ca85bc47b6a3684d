#!/usr/bin/env python3
"""Run-to-run spread and A/B comparison for the end-to-end benchmark.

    # N runs per workload, seeds 1..N: median, quartiles and spread per row
    python3 bench/e2e/spread.py spread --runs 10 [--workload W] [--out F]
    python3 bench/e2e/spread.py spread --from F        # re-analyse saved runs

    # alternating pairs of two checkouts (parent first on even pairs)
    python3 bench/e2e/spread.py ab --base DIR --head DIR --pairs 10 [--out F]
    python3 bench/e2e/spread.py ab --from F

Every run goes through that checkout's bench/e2e/run.py --details, so both
the gated end-to-end metrics and each workload's own metrics are rows.
Spread is (q3 - q1) / median with the quartiles of statistics.quantiles(n=4).
A row is "steady" when its spread is under a third of its bound; the bound
comes from BENCHMARK.json for gated metrics and is DETAIL_BOUND otherwise.

ab judges each metric x workload row as the choosing-metrics guide (sec. 8)
asks: "improved" when the head wins at least 9 of 10 pairs (ties count for
neither) and the medians differ by more than the base's own quartile
distance; "regressed" when the head's median is worse than the base's by
more than the bound; "unresolved" when the base's spread is wider than the
bound and not every head run beats every base run; else "within bound".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["fuse_batch", "serve_tcp", "ingest_serve"]
DETAIL_BOUND = 0.10
# Direction of the workloads' own (ungated) metrics; unlisted ones are
# descriptive counts and are not judged.
DETAIL_BETTER = {
    "read_rps": "higher", "read_p50_us": "lower", "read_p99_us": "lower",
    "read_p50_us_hi": "lower", "read_p99_us_hi": "lower",
    "read_p50_us_sat": "lower", "read_p99_us_sat": "lower",
    "gen_lag_us_p99": "lower", "gen_lag_us_p99_hi": "lower",
    "ingest_obs_per_s": "higher", "commit_p50_ms": "lower",
    "commit_p99_ms": "lower",
}


def load_bounds(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def run_once(checkout, workload, seed, seconds, side=""):
    """One run.py invocation in `checkout`; returns {metric: value}.

    A relative CARGO_TARGET_DIR lies inside each checkout; an absolute one
    gets a subdirectory per `side`, so two checkouts never share a build.
    """
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(target):
        target = os.path.join(target, side or "head")
    env["CARGO_TARGET_DIR"] = target
    cmd = [sys.executable, os.path.join(checkout, "bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--details"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("no result from %s (exit %d)\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        failures = [l for l in proc.stderr.splitlines() if "FAILED" in l]
        sys.exit("%s seed %d: outputs were wrong\n%s" %
                 (workload, seed, "\n".join(failures)))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rows(runs, bounds):
    """(workload, metric, values, bound, better) per judged row."""
    for workload in WORKLOADS:
        samples = runs.get(workload)
        if not samples:
            continue
        for metric in samples[0]:
            if metric in bounds:
                bound, better = bounds[metric]
            elif metric in DETAIL_BETTER:
                bound, better = DETAIL_BOUND, DETAIL_BETTER[metric]
            else:
                continue
            yield workload, metric, [s[metric] for s in samples], bound, better


def spread_table(runs, bounds):
    print("%-13s %-26s %3s %14s %14s %14s %8s %6s %s" %
          ("workload", "metric", "n", "median", "q1", "q3", "spread",
           "bound", "status"))
    worst = 0.0
    for workload, metric, values, bound, _ in rows(runs, bounds):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        gated = metric in bounds
        status = "steady" if spread < bound / 3 else "NOISY"
        if gated:
            worst = max(worst, spread / bound)
        print("%-13s %-26s %3d %14.6g %14.6g %14.6g %7.2f%% %5.0f%% %s%s" %
              (workload, metric, len(values), med, q1, q3, 100 * spread,
               100 * bound, status, "" if gated else " (detail)"))
    print("largest gated spread / bound: %.2f (steady below 0.33)" % worst)


def judge(base, head, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(base, head) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(base, head) if sign * (b - a) < 0)
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(head)
    gain = sign * (med_b - med_a)
    if wins >= 0.9 * len(base) and gain > q3 - q1:
        return "improved", wins, losses
    if -gain > bound * abs(med_a):
        return "regressed", wins, losses
    all_better = min(sign * b for b in head) > max(sign * a for a in base)
    if (q3 - q1) > bound * abs(med_a) and not all_better:
        return "unresolved", wins, losses
    return "within bound", wins, losses


def ab_table(data, bounds):
    print("%-13s %-26s %14s %14s %8s %5s %s" %
          ("workload", "metric", "base median", "head median", "change",
           "wins", "verdict"))
    for workload in WORKLOADS:
        if workload not in data["base"]:
            continue
        base_rows = dict(((m, v) for _, m, v, _, _ in
                          rows({workload: data["base"][workload]}, bounds)))
        for _, metric, head, bound, better in rows(
                {workload: data["head"][workload]}, bounds):
            base = base_rows[metric]
            verdict, wins, losses = judge(base, head, bound, better)
            med_a = statistics.median(base)
            med_b = statistics.median(head)
            change = (med_b - med_a) / abs(med_a) if med_a else float("inf")
            print("%-13s %-26s %14.6g %14.6g %7.2f%% %2d/%-2d %s" %
                  (workload, metric, med_a, med_b, 100 * change, wins,
                   wins + losses, verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in ("spread", "ab"):
        p = sub.add_parser(name)
        p.add_argument("--workload", action="append", choices=WORKLOADS)
        p.add_argument("--seconds", type=float, default=20)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--out", help="save the raw runs as JSON")
        p.add_argument("--from", dest="saved", help="analyse saved runs")
    sub.choices["spread"].add_argument("--runs", type=int, default=10)
    sub.choices["spread"].add_argument("--checkout", default=ROOT)
    sub.choices["ab"].add_argument("--base", help="parent checkout")
    sub.choices["ab"].add_argument("--head", default=ROOT,
                                   help="changed checkout")
    sub.choices["ab"].add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    bounds = load_bounds(ROOT)
    workloads = args.workload or WORKLOADS

    if args.saved:
        with open(args.saved) as f:
            data = json.load(f)
    elif args.mode == "spread":
        data = {w: [] for w in workloads}
        for w in workloads:
            for i in range(args.runs):
                seed = args.first_seed + i
                data[w].append(run_once(args.checkout, w, seed, args.seconds))
                print("%s seed %d done" % (w, seed), file=sys.stderr)
    else:
        if not args.base:
            sys.exit("ab needs --base")
        data = {"base": {w: [] for w in workloads},
                "head": {w: [] for w in workloads}}
        for w in workloads:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                for side in order:
                    checkout = args.base if side == "base" else args.head
                    data[side][w].append(
                        run_once(checkout, w, seed, args.seconds, side))
                print("%s pair %d done" % (w, i), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    if args.mode == "spread":
        spread_table(data, bounds)
    else:
        ab_table(data, bounds)


if __name__ == "__main__":
    main()
