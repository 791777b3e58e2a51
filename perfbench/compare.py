#!/usr/bin/env python3
"""Collects and compares sets of benchmark results.

    # Run this checkout and a base checkout (e.g. the parent commit) in
    # turn, seed by seed, into OUT_DIR/base and OUT_DIR/new:
    python3 perfbench/compare.py collect OUT_DIR --base BASE_CHECKOUT --seeds 1-10

    # Compare the two sets:
    python3 perfbench/compare.py diff OUT_DIR/base OUT_DIR/new

    # Without --base, collect runs only this checkout into OUT_DIR.

The machine's speed drifts over minutes, so two sets run one after the
other mix up which commit ran with when it ran. With --base, the two
checkouts alternate: for each workload and seed both run back to back, and
the side that runs first switches from one seed to the next. Each checkout
builds into its own .bench_build (an absolute $CARGO_TARGET_DIR is ignored,
since the two builds must not share a directory).

A result set is a directory of files named <workload>-seed<N>.json, each
holding the last stdout line of one `perfbench/run.py --trace 0` run. For
every workload and end-to-end metric, `diff` prints both medians and
quartiles; over the seeds both sets ran, the median of the per-seed ratio
new / base (the paired ratio, which cancels drift when the sets were
collected in turn) and the pairs the new side won (ties count for
neither); and a verdict, using the metric's direction and bound from
BENCHMARK.json:

  unresolved  the quartile spread (as a share of the median) of either set
              is wider than the bound, and not every new run beats every
              base run;
  worse       the new median is worse than the base median by more than
              the bound;
  improved    the new median is better than the base median by more than
              the base set's own quartile spread, and the new side won at
              least nine tenths of the pairs (when the sets share seeds);
  unchanged   otherwise.

It also compares the share of failed operations, which must be identical.
Exits 1 when a metric is worse, a failed share differs or a run reported
incorrect output; otherwise 0.
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, workload, seed, out_dir):
    """Runs one workload once in checkout `root`; False if the run failed."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    env = dict(os.environ)
    if os.path.isabs(env.get("CARGO_TARGET_DIR", "")):
        del env["CARGO_TARGET_DIR"]
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                             str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s seed %d in %s: run failed (exit %d)" % (workload, seed, root, proc.returncode),
              file=sys.stderr)
        return False
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as f:
        f.write(lines[-1] + "\n")
    print("%s seed %d: %s" % (workload, seed, path), flush=True)
    return True


def collect(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    sides = [(ROOT, args.out)]
    if args.base:
        sides = [(os.path.abspath(args.base), os.path.join(args.out, "base")),
                 (ROOT, os.path.join(args.out, "new"))]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for root, out_dir in order:
                if not run_once(root, workload, seed, out_dir):
                    return 1
    return 0


def load_set(directory):
    """{workload: {seed: result}} of one result directory."""
    results = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        match = re.match(r"(.+)-seed(\d+)\.json$", os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            results.setdefault(match.group(1), {})[int(match.group(2))] = json.loads(
                f.read().strip())
    return results


def pairs(metric, base, new):
    """(median new / base ratio or None, pairs the new side won, pairs) over
    the seeds both sets ran."""
    name = metric["name"]
    sign = 1 if metric["better"] == "lower" else -1
    values = [(base[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"])
              for s in sorted(set(base) & set(new))]
    ratios = [n / b for b, n in values if b]
    wins = sum(1 for b, n in values if sign * (n - b) < 0)
    return statistics.median(ratios) if ratios else None, wins, len(values)


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(metric, base, new, wins=0, num_pairs=0):
    """(verdict, base summary, new summary) of one metric."""
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric["bound"]
    b = summary(base)
    n = summary(new)
    worse_share = sign * (n[0] - b[0]) / b[0] if b[0] else 0.0
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    if max(b[3], n[3]) > bound and not all_better:
        return "unresolved", b, n
    if worse_share > bound:
        return "worse", b, n
    if -worse_share > b[3] and (num_pairs == 0 or 10 * wins >= 9 * num_pairs):
        return "improved", b, n
    return "unchanged", b, n


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results), attempted


def diff(args):
    spec = load_spec()
    base = load_set(args.base)
    new = load_set(args.new)
    status = 0
    print("%-8s %-20s %-11s %-36s %-36s %s" % ("workload", "metric", "verdict",
                                               "base median [q1, q3] (spread)",
                                               "new median [q1, q3] (spread)", "paired, won"))
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print("%-8s missing from %s" % (workload, "base" if workload not in base else "new"))
            status = 1
            continue
        runs_b = base[workload]
        runs_n = new[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_b = [r["metrics"][name]["value"] for r in runs_b.values()]
            values_n = [r["metrics"][name]["value"] for r in runs_n.values()]
            ratio, wins, num_pairs = pairs(metric, runs_b, runs_n)
            word, b, n = verdict(metric, values_b, values_n, wins, num_pairs)
            if word == "worse":
                status = 1
            print("%-8s %-20s %-11s %-36s %-36s %s" % (
                workload, name, word,
                "%.6g [%.6g, %.6g] (%.3f)" % (b[0], b[1], b[2], b[3]),
                "%.6g [%.6g, %.6g] (%.3f)" % (n[0], n[1], n[2], n[3]),
                "-" if ratio is None else "%.3f, %d/%d" % (ratio, wins, num_pairs)))
        fb = failed_share(runs_b.values())
        fn = failed_share(runs_n.values())
        same = fb[0] * fn[1] == fn[0] * fb[1]
        incorrect = [r for r in list(runs_b.values()) + list(runs_n.values())
                     if not r["correct"]]
        print("%-8s %-20s %-11s %-36s %-36s" % (
            workload, "failed/attempted", "same" if same else "DIFFERS",
            "%d/%d" % fb, "%d/%d" % fn))
        if not same or incorrect:
            status = 1
        if incorrect:
            print("%-8s %d run(s) reported incorrect output" % (workload, len(incorrect)))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect")
    p_collect.add_argument("out")
    p_collect.add_argument("--seeds", default="1-10")
    p_collect.add_argument("--workloads", default="")
    p_collect.add_argument("--base", default="",
                           help="checkout to run in turn with this one (OUT/base, OUT/new)")
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("base")
    p_diff.add_argument("new")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
