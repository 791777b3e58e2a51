#!/usr/bin/env python3
"""End-to-end partitioning benchmark.

    python3 perfbench/run.py --workload rgg-lp --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the partitioner and the benchmark
programs from source (CMake, into $CARGO_TARGET_DIR or .bench_build), builds
the workload's input graph from --seed (cached by spec and seed), runs the
workload in fresh processes, checks every returned partition with the
independent checker, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced run (spans are written under
<build dir>/traces/). Everything the run writes stays under the build dir.
"""

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Input graph per workload (generator spec; the graph seed is --seed).
WORKLOADS = {
    "rgg-lp": "rgg2d:n=1000000,deg=16",
    "rhg-fm": "rhg:n=250000,deg=16,gamma=3",
    "svc-ks": "weblike:n=250000,deg=16",
}
# Extra fresh processes that only run set-up, half before and half after
# the main run; setup_s is the median of their set-up times and the main
# run's. The machine's speed drifts over tens of seconds, so samples spread
# over the run are steadier than back-to-back ones; svc-ks set-up is short
# and takes more of them.
SETUP_PROCESSES = {"rgg-lp": 2, "rhg-fm": 2, "svc-ks": 6}
# Cached inputs kept per generator spec (oldest dropped first).
CACHED_INPUTS = 4
TIMEOUT_S = 170
TPG_MAGIC = 0x5452504731


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd and returns its output; on failure logs it and raises."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise RuntimeError("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return proc.stdout


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("partitioner sources (src/) not found next to perfbench/")
    build_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                  timeout=300)
    run_quiet(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
               "--target", "perfbench", "perfbench_check", "perfbench_check_test"],
              timeout=800)
    return build_dir


def tpg_header(path):
    """(n, m) of a .tpg file whose header matches its size, else None."""
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            magic, n, m, nw, ew = struct.unpack("<5Q", f.read(40))
    except (OSError, struct.error):
        return None
    expected = 40 + (n + 1) * 8 + m * 4 + nw * n * 8 + ew * m * 8
    if magic != TPG_MAGIC or nw > 1 or ew > 1 or size != expected:
        return None
    return n, m


def spec_n(spec):
    params = dict(p.split("=") for p in spec.split(":", 1)[1].split(","))
    return int(params["n"])


def input_graph(binary, build_dir, workload, seed):
    """The workload's .tpg for this seed, generated on first use."""
    spec = WORKLOADS[workload]
    cache = os.path.join(build_dir, "inputs")
    os.makedirs(cache, exist_ok=True)
    name = "%s.seed%d" % (spec.replace(":", "_").replace(",", "_").replace("=", ""), seed)
    path = os.path.join(cache, name + ".tpg")
    meta_path = os.path.join(cache, name + ".json")
    header = tpg_header(path)
    meta = None
    if header is not None and os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
    if (header is None or header[0] != spec_n(spec) or meta is None or meta.get("spec") != spec
            or meta.get("seed") != seed or meta.get("bytes") != os.path.getsize(path)):
        run_quiet([binary, "gen", spec, str(seed), path], timeout=TIMEOUT_S)
        header = tpg_header(path)
        if header is None or header[0] != spec_n(spec):
            raise RuntimeError("generated input %s failed validation" % path)
        meta = {"spec": spec, "seed": seed, "n": header[0], "m": header[1],
                "bytes": os.path.getsize(path)}
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        prefix = name.rsplit(".seed", 1)[0] + ".seed"
        cached = sorted((p for p in os.listdir(cache) if p.startswith(prefix) and
                         p.endswith(".tpg")),
                        key=lambda p: os.path.getmtime(os.path.join(cache, p)))
        for old in cached[:-CACHED_INPUTS]:
            for stale in (old, old[:-4] + ".json"):
                if os.path.exists(os.path.join(cache, stale)):
                    os.remove(os.path.join(cache, stale))
    return path, header


def run_perfbench(binary, args, workdir, extra=()):
    os.makedirs(workdir, exist_ok=True)
    out = run_quiet([binary] + args + [workdir] + list(extra), timeout=TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def check(checker, graph, workdir):
    """{op: None (passed) | reason} for every claim of one perfbench process."""
    claims = os.path.join(workdir, "claims.tsv")
    out = run_quiet([checker, graph, claims], timeout=TIMEOUT_S)
    verdicts = {}
    for line in out.splitlines():
        op, status, rest = (line.split(" ", 2) + [""])[:3]
        verdicts[op] = None if status == "ok" else rest
    return verdicts


def judge(checker, graph, workdir, result):
    """(attempted, failed op reasons, every successful op was claimed)."""
    verdicts = check(checker, graph, workdir)
    failed = {str(f["op"]): f["reason"] for f in result.get("failures", [])}
    judged = set(verdicts) | set(failed)
    for op, reason in verdicts.items():
        if reason is not None:
            failed.setdefault(op, reason)
    attempted = int(result["attempted"])
    return attempted, failed, len(judged) >= attempted


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(main, setups, m):
    times = main["op_s"]
    cuts = main["cuts"]
    return {
        "setup_s": statistics.median(setups),
        "partition_s": statistics.median(times),
        "partition_s_p90": percentile(times, 90),
        "edges_per_s": len(times) * m / main["timed_wall_s"],
        "cut": statistics.median(cuts),
        "cut_max": max(cuts),
        "peak_tracked_bytes": main["peak_tracked_bytes"],
        "peak_rss_bytes": main["peak_rss_bytes"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]

    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                                  ".bench_build")))
    cmake_dir = build(build_dir)
    binary = os.path.join(cmake_dir, "perfbench")
    checker = os.path.join(cmake_dir, "perfbench_check")
    work = os.path.join(build_dir, "work", "%s.seed%d.%d" % (args.workload, args.seed,
                                                             os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        # The checker must accept a real partition and reject mutated ones;
        # otherwise its verdicts below mean nothing.
        selftest = subprocess.run([os.path.join(cmake_dir, "perfbench_check_test"),
                                   os.path.join(work, "selftest")], stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
        correct = selftest.returncode == 0
        if not correct:
            log("checker self-test failed:", selftest.stderr[-2000:])

        graph, (_, m) = input_graph(binary, build_dir, args.workload, args.seed)
        common = [args.workload, graph, str(args.seed)]
        attempted = 0
        failed = {}
        runs = []

        def setup_runs(first, last):
            for i in range(first, last):
                setup_dir = os.path.join(work, "setup%d" % i)
                runs.append((run_perfbench(binary, ["run"] + common + ["0"], setup_dir,
                                        ["--setup-only"]), setup_dir))

        setup_count = 0 if args.trace else SETUP_PROCESSES[args.workload]
        setup_runs(0, setup_count // 2)
        mode = "trace" if args.trace else "run"
        main_dir = os.path.join(work, "main")
        main_run = run_perfbench(binary, [mode] + common + [repr(args.seconds)], main_dir)
        runs.append((main_run, main_dir))
        setup_runs(setup_count // 2, setup_count)
        for result, workdir in runs:
            n_attempted, n_failed, all_claimed = judge(checker, graph, workdir, result)
            attempted += n_attempted
            failed.update({"%s/%s" % (os.path.basename(workdir), op): why
                           for op, why in n_failed.items()})
            # A wrong partition makes the run's output incorrect, not only
            # the operation failed.
            correct = correct and all_claimed and not n_failed
        if main_run.get("service_contract_ok") is False:
            # One store load and one session-cache miss per run is a service
            # guarantee; a run that breaks it fails every operation.
            correct = False
            failed.update({"main/contract/%d" % i: "service contract" for i in
                           range(int(main_run["attempted"]))})
        for op, why in list(failed.items())[:10]:
            log("failed op %s: %s" % (op, why))

        if args.trace:
            values = main_run["metrics"]
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.copy(os.path.join(main_dir, "trace.json"),
                        os.path.join(trace_dir, "%s.seed%d.json" % (args.workload, args.seed)))
        else:
            setups = [r["setup_s"] for r, _ in runs]
            log("setup_s per process:", " ".join("%.3f" % s for s in setups))
            values = end_to_end(main_run, setups, m)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": min(len(failed), attempted), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        log("perfbench:", e)
        sys.exit(1)
