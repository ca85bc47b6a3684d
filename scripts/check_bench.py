#!/usr/bin/env python3
"""CI regression gate over the checked-in bench baselines.

Every gated bench (bench_paper, bench_streaming, bench_inference,
bench_serving, bench_persist, bench_correlation, bench_sharding,
bench_memory, bench_network) prints one JSON object as its last line
(bench/bench_util.h); the repo checks in baselines as BENCH_<name>.json.
This script compares a fresh run against those baselines and fails the
build when a tracked metric regresses beyond the tolerance.

Only *ratio-style* metrics (speedups: optimized-vs-baseline wall time
measured in the same process) are gated, and only with a tolerance
(default 2.0x, overridable per metric), because shared CI runners have
noisy absolute timings but keep intra-process ratios fairly stable.
Deterministic *ceiling* metrics (bytes_per_triple: a pure function of the
layout, not of machine speed) fail when the current run exceeds the
baseline by more than their factor. Deterministic *exact* metrics
(bench_streaming's grouping_builds and full_invalidations: how often the
incremental path fell back to a rebuild) must equal the baseline. Boolean
correctness gates
(scores_identical, kernels_identical, attach_ms_bound_ok, the sketch's
error_within_bound_* flags) must hold exactly. Absolute timings and qps
are reported for the uploaded artifacts but never gated.

bench_paper reproduces the paper's experiments from seeded inputs, and
scores are thread-invariant, so its quality values are deterministic:
every F-measure and AUC (keys ending in _f1, _auc_pr, _auc_roc) must match
the baseline to an absolute 1e-9, every count (_clusters, _largest,
_train_size) exactly, and every claim_* boolean (one "paper shape"
sentence each) that holds in the baseline must still hold. A claim that is
false in the baseline is not gated; neither are the timings and the
timing_claim_* shapes. A metric name with a '*' is a glob over the
baseline's keys and must match at least one.

Usage:
  check_bench.py --baseline-dir . --current-dir bench-out [--tolerance 2.0]

The current dir holds files named like the baselines (BENCH_persist.json,
...); each file's last non-empty line must be the bench's JSON object.
Baselines with no matching current file fail the gate (the bench silently
not running is itself a regression).
"""

import argparse
import fnmatch
import glob
import json
import os
import sys

# bench name (the JSON "bench" field) -> {ratio metric: tolerance override}.
# A tolerance of None uses the command-line default (2.0x). The current run
# fails when metric < baseline/tolerance.
RATIO_METRICS = {
    "streaming": {"speedup": 2.0},
    "inference": {"grouping_speedup": None, "runall_speedup": None},
    "serving": {},  # qps/latency are absolute -> reported, not gated
    "persist": {"warmstart_speedup": 2.0},
    # 64 sources runs in microseconds and is dominated by sketch-build
    # fixed costs; reported but not gated.
    "correlation": {"sketch_speedup_256": None, "sketch_speedup_1024": None},
    # The 4-shard ingest advantage is the sharding subsystem's headline
    # claim (work reduction, not threads); 1.5x keeps the floor above the
    # no-speedup line for the checked-in ~2.5x baseline. publish_ratio_4 is
    # a K=1 publish over a K=4 one of the same one-cluster corpus: near 1
    # when the router scores each pattern once per model, near 1/4 or
    # below when every shard scores its own patterns.
    "sharding": {"ingest_speedup_4": 1.5, "publish_ratio_4": None},
    # mmap attach vs bulk copy-load of the same file, one process; the
    # columnar-vs-legacy footprint ratio is layout-determined and stable.
    "memory": {"attach_speedup": 2.0, "memory_reduction": None},
    # network_qps / inprocess_qps, the median over alternating in-process
    # and networked rounds of one process on the same workload —
    # machine-independent like the other ratios, but loopback scheduling
    # makes it noisier: eleven runs on a shared 4-vCPU VM read
    # 0.022-0.049, a 2.2x spread, hence the wide tolerance.
    # rtt_p50_us / rtt_p99_us / qps are absolute -> reported, not gated.
    "network": {"qps_ratio": 4.0},
}

# bench name -> {metric: max growth factor}. These are deterministic
# functions of the data layout (not machine speed): the current run fails
# when metric > baseline * factor.
CEILING_METRICS = {
    "memory": {"bytes_per_triple": 1.1, "grouping_bytes_per_triple": 1.1,
               "grouping_bytes_per_triple_singletons": 1.1},
}

# bench name -> metrics that must equal the baseline exactly. These are
# deterministic counters (not timings): streaming keeps one grouping and
# never invalidates the model at any scale.
EXACT_METRICS = {
    "streaming": ["grouping_builds", "full_invalidations"],
    "paper": ["*_clusters", "*_largest", "*_train_size"],
}

# bench name -> {metric: absolute tolerance}. Deterministic values that are
# not integers: the current run fails when |current - baseline| exceeds the
# tolerance.
ABSOLUTE_METRICS = {
    "paper": {"*_f1": 1e-9, "*_auc_pr": 1e-9, "*_auc_roc": 1e-9},
}

# bench name -> boolean metrics that must be true in the current run
# whenever the baseline recorded them as true. No tolerance: these are
# correctness contracts, not timings.
BOOL_METRICS = {
    "streaming": ["scores_identical"],
    "inference": ["scores_identical", "kernels_identical", "model_identical"],
    "serving": ["scores_identical"],
    "persist": ["scores_identical"],
    "correlation": [
        "error_within_bound_64",
        "error_within_bound_256",
        "error_within_bound_1024",
    ],
    "sharding": ["scores_identical"],
    "memory": ["scores_identical", "attach_ms_bound_ok"],
    # Every networked response byte-identical to the in-process engine.
    "network": ["responses_identical"],
    "paper": ["claim_*"],
}


def expand(metrics, baseline):
    """Yields (metric, matched) per metric, globs expanded over `baseline`.

    A plain name yields itself even when the baseline lacks it, so the
    caller reports it missing; a glob that matches nothing yields
    (pattern, False).
    """
    for metric in metrics:
        if "*" not in metric:
            yield metric, True
            continue
        keys = sorted(fnmatch.filter(baseline.keys(), metric))
        if not keys:
            yield metric, False
        for key in keys:
            yield key, True


def load_bench_json(path):
    """Parses the last non-empty line of `path` as a bench JSON object."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: last line is not JSON: {e}") from e
    if not isinstance(obj, dict) or "bench" not in obj:
        raise ValueError(f"{path}: not a bench JSON object (no 'bench' key)")
    return obj


def check_file(baseline_path, current_path, tolerance):
    """Returns a list of (ok, description) rows for one baseline file."""
    rows = []
    baseline = load_bench_json(baseline_path)
    name = baseline["bench"]
    if not os.path.exists(current_path):
        return [(False, f"{name}: current run missing ({current_path})")]
    current = load_bench_json(current_path)
    if current.get("bench") != name:
        return [(False,
                 f"{name}: current file reports bench "
                 f"'{current.get('bench')}'")]

    for metric, override in RATIO_METRICS.get(name, {}).items():
        if metric not in baseline:
            rows.append((False, f"{name}.{metric}: missing from baseline"))
            continue
        if metric not in current:
            rows.append((False, f"{name}.{metric}: missing from current run"))
            continue
        metric_tolerance = override if override is not None else tolerance
        base, cur = float(baseline[metric]), float(current[metric])
        floor = base / metric_tolerance
        ok = cur >= floor
        rows.append((ok,
                     f"{name}.{metric}: current {cur:.2f} vs baseline "
                     f"{base:.2f} (floor {floor:.2f} at {metric_tolerance}x "
                     f"tolerance)"))

    for metric, factor in CEILING_METRICS.get(name, {}).items():
        if metric not in baseline:
            rows.append((False, f"{name}.{metric}: missing from baseline"))
            continue
        if metric not in current:
            rows.append((False, f"{name}.{metric}: missing from current run"))
            continue
        base, cur = float(baseline[metric]), float(current[metric])
        ceiling = base * factor
        ok = cur <= ceiling
        rows.append((ok,
                     f"{name}.{metric}: current {cur:.2f} vs baseline "
                     f"{base:.2f} (ceiling {ceiling:.2f} at {factor}x "
                     f"growth)"))

    for metric, matched in expand(EXACT_METRICS.get(name, []), baseline):
        if not matched or metric not in baseline:
            rows.append((False, f"{name}.{metric}: missing from baseline"))
            continue
        ok = current.get(metric) == baseline[metric]
        rows.append((ok,
                     f"{name}.{metric}: current {current.get(metric)} vs "
                     f"baseline {baseline[metric]} (must be equal)"))

    for pattern, tolerance in ABSOLUTE_METRICS.get(name, {}).items():
        for metric, matched in expand([pattern], baseline):
            if not matched or metric not in baseline:
                rows.append((False, f"{name}.{metric}: missing from baseline"))
                continue
            base, cur = baseline[metric], current.get(metric)
            if base is None or cur is None:  # non-finite values print null
                ok = base is None and cur is None
            else:
                ok = abs(float(cur) - float(base)) <= tolerance
            rows.append((ok,
                         f"{name}.{metric}: current {cur} vs baseline "
                         f"{base} (within {tolerance:g})"))

    for metric, matched in expand(BOOL_METRICS.get(name, []), baseline):
        if not matched:
            rows.append((False, f"{name}.{metric}: missing from baseline"))
        elif baseline.get(metric) is True:
            ok = current.get(metric) is True
            rows.append((ok, f"{name}.{metric}: {current.get(metric)}"))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the checked-in BENCH_*.json")
    parser.add_argument("--current-dir", required=True,
                        help="directory holding this run's bench JSON files")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="fail when a ratio metric drops below "
                             "baseline/tolerance (default 2.0)")
    args = parser.parse_args()

    baselines = sorted(glob.glob(os.path.join(args.baseline_dir,
                                              "BENCH_*.json")))
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline_dir}",
              file=sys.stderr)
        return 1

    failed = False
    for baseline_path in baselines:
        current_path = os.path.join(args.current_dir,
                                    os.path.basename(baseline_path))
        try:
            rows = check_file(baseline_path, current_path, args.tolerance)
        except ValueError as e:
            rows = [(False, str(e))]
        for ok, description in rows:
            print(f"{'PASS' if ok else 'FAIL'}  {description}")
            failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
