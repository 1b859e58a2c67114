#!/usr/bin/env python3
"""P2PLab benchmark: three emulation workloads, timed in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn_tcp --seed 1 --seconds 30 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt, linking ../src) into
$CARGO_TARGET_DIR or .bench_build, runs the workload through it and checks
the outputs. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the per-module metrics of a traced run, beside an
untraced one in the same process. The exit code is nonzero when a
correctness or determinism check fails. See perfbench/README.md.

    python3 perfbench/run.py --workload all ...     # every workload in turn
    python3 perfbench/run.py --record [--workload <name>]   # expected.json
"""
import argparse
import csv
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload is a shipped scenario plus --set overrides. One run covers
# `seeds` engine seeds derived from --seed (sub_seeds), so the seed-to-seed
# spread of the simulated work averages out inside a run. `shards` is the
# engine shard count the workload needs cores for; `ring` sizes the traced
# run's profiler rings so that none drops a sample.
WORKLOADS = {
    "churn_tcp": {
        "scenario": "scenarios/churn.scn",
        "overrides": ["engine.transport=tcp", "workload.clients=40"],
        "digest": ["completions.csv", "churn_summary.csv"],
        "seeds": 6,
        "shards": 0,
        "ring": 1 << 12,
    },
    "swarm_fold32_k2": {
        "scenario": "scenarios/fig10.scn",
        "overrides": ["workload.clients=59", "workload.file_size=1M",
                      "engine.shards=2"],
        "digest": ["completions.csv"],
        "seeds": 6,
        "shards": 2,
        "ring": 1 << 17,
    },
    "gossip_probe": {
        "scenario": "scenarios/gossip.scn",
        "overrides": ["engine.run_for=3600"],
        "digest": ["gossip_detection.csv", "gossip_fp_summary.csv"],
        "seeds": 12,
        "shards": 0,
        "ring": 1 << 12,
    },
}
# Swarm workloads also write the per-client completion CSV.
COMPLETIONS = "outputs.completions=completions"
# Counts that must repeat exactly on every run of a (workload, seed).
EXACT_COUNTS = ["sim.events.dispatched", "net.packets_sent",
                "ipfw.packets_classified", "bt.piece_completions"]
# The default seed and one held out while the benchmark was written.
RECORDED_SEEDS = [1, 1009]
MIN_PASSES = 2
EXPECTED = os.path.join(HERE, "expected.json")

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]


def sub_seeds(name, seed):
    """The engine seeds one run covers: --seed and its k-1 siblings."""
    return [seed + 1000 * j for j in range(WORKLOADS[name]["seeds"])]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the driver path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed", 1)
    return os.path.join(bdir, "perfbench_driver")


def run_driver(driver, name, seed, seconds, trace, extra=(), tag=None):
    """One driver process; returns (samples, results dir)."""
    w = WORKLOADS[name]
    tag = tag or f"{name}-seed{seed}-trace{trace}"
    out_dir = os.path.join(build_dir(), "runs", tag)
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.join(out_dir, "samples.json")
    overrides = list(w["overrides"])
    if "completions.csv" in w["digest"]:
        overrides.append(COMPLETIONS)
    overrides += list(extra)
    cmd = [driver, "--scenario", os.path.join(ROOT, w["scenario"]),
           "--accuracy", os.path.join(ROOT, "scenarios/accuracy.scn"),
           "--seeds", ",".join(map(str, sub_seeds(name, seed))),
           "--results", out_dir, "--out", out_json,
           "--seconds", str(seconds), "--trace", str(trace),
           "--min-passes", str(1 if trace else MIN_PASSES),
           "--ring", str(w["ring"])]
    for o in overrides:
        cmd += ["--set", o]
    for d in w["digest"]:
        cmd += ["--digest", d]
    if os.path.exists(out_json):
        os.remove(out_json)
    with open(os.path.join(out_dir, "driver.log"), "w") as log:
        code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=170).returncode
    if code != 0 or not os.path.exists(out_json):
        die(f"driver exited with {code}; see {out_dir}/driver.log", 1)
    with open(out_json) as f:
        return json.load(f), out_dir


def read_csv(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return list(csv.DictReader(line for line in f
                                   if not line.startswith("#")))


def outcomes(name, kind_dir):
    """(attempted, failed) outcomes of one run, from its output files."""
    if name == "gossip_probe":
        rows = read_csv(os.path.join(kind_dir, "gossip_detection.csv"))
        fp = read_csv(os.path.join(kind_dir, "gossip_fp_summary.csv"))
        confirms = int(float(fp[0]["confirms"])) if fp else 0
        false_confirms = int(float(fp[0]["false_confirms"])) if fp else 0
        missed = sum(float(r["first_confirm_s"]) < 0 for r in rows)
        return len(rows) + confirms, missed + false_confirms
    # Swarm: surviving clients that did not complete, over survivors. The
    # churn invariant prints the survivor count; without churn every
    # client survives.
    with open(os.path.join(kind_dir, "stdout.log")) as f:
        for line in f:
            if line.startswith("# survivors complete:"):
                done, total = line.split()[3].split("/")
                return int(total), int(total) - int(done)
    rows = read_csv(os.path.join(kind_dir, "completions.csv"))
    return len(rows), sum(float(r["completion_s"]) < 0 for r in rows)


def accuracy_ok(out_dir):
    path = os.path.join(out_dir, "accuracy", "ACCURACY.json")
    if not os.path.exists(path):
        return False
    with open(path) as f:
        acc = json.load(f)
    inv = acc.get("invariants", [])
    return acc.get("pass") == 1 and len(inv) == 9 and all(
        i.get("pass") == 1 for i in inv)


def hist_quantile(h, q):
    """Quantile of a bucketed histogram, linear inside the bucket."""
    total = sum(h["buckets"])
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    lower = 0.0
    for i, n in enumerate(h["buckets"]):
        upper = h["bounds"][i] if i < len(h["bounds"]) else max(h["max"], lower)
        if n and seen + n >= target:
            return lower + (upper - lower) * (target - seen) / n
        seen += n
        lower = upper
    return h["max"]


def ratio(a, b):
    return a / b if b else 0.0


def by_seed(iters, kind=None):
    """{seed: [iterations of that kind, or of any kind]}, in run order."""
    groups = {}
    for it in iters:
        if kind in (None, it["kind"]):
            groups.setdefault(it["seed"], []).append(it)
    return groups


def batch_mean(iters, kind, value):
    """Mean over the seeds of the per-seed median of value(iteration)."""
    groups = by_seed(iters, kind)
    return statistics.fmean(statistics.median(value(it) for it in g)
                            for g in groups.values())


def recorded(name, seed):
    """{engine seed: {digest, counts}} recorded for (workload, --seed)."""
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f).get(name, {}).get(str(seed), {})


def check(samples, out_dir, name, seed, expected):
    """All correctness and determinism checks; returns a list of failures."""
    problems = []
    iters = samples["iterations"]
    if samples["accuracy_exit"] != 0 or not accuracy_ok(out_dir):
        problems.append("fidelity guard: accuracy.scn is not 9/9")
    for it in iters:
        if it["exit"] != 0:
            problems.append(f"{it['kind']} run at engine.seed={it['seed']}: "
                            f"exit {it['exit']} (a scenario invariant failed)")
        if it["counters"].get("perfbench.profile.ring_dropped", 0) != 0:
            problems.append("traced run dropped profiler samples")
    groups = by_seed(iters)
    if sorted(groups) != sorted(sub_seeds(name, seed)):
        problems.append(f"ran seeds {sorted(groups)}, expected "
                        f"{sub_seeds(name, seed)}")
    for sub, group in groups.items():
        digests = {it["digest"] for it in group}
        if len(digests) != 1:
            problems.append(f"engine.seed={sub}: simulated outputs differ "
                            f"between runs: {sorted(digests)}")
        counts = {json.dumps(exact_counts(it)) for it in group}
        if len(counts) != 1:
            problems.append(f"engine.seed={sub}: exact counts differ between "
                            f"runs: {sorted(counts)}")
        want = expected.get(str(sub))
        if want and (want["digest"] != group[0]["digest"]
                     or want["counts"] != exact_counts(group[0])):
            problems.append(f"engine.seed={sub}: outputs or exact counts "
                            f"differ from the recorded ones: "
                            f"{group[0]['digest']} "
                            f"{exact_counts(group[0])} != {want}")
    return problems


def exact_counts(it):
    return {c: it["counters"].get(c, 0) for c in EXACT_COUNTS}


def end_to_end(samples):
    iters = samples["iterations"]
    setups = samples["setup_only_s"] + [it["parse_s"] + it["setup_s"]
                                        for it in iters]
    runs = sum(it["kind"] == "untraced" for it in iters)
    return {
        "setup_s": statistics.median(setups),
        "run_s": batch_mean(iters, "untraced", lambda it: it["run_s"]),
        "cpu_s": batch_mean(iters, "untraced", lambda it: it["cpu_s"]),
        "peak_rss_mb": samples["peak_rss_kb"] / 1024.0,
    }, {"setup_s": f"median of {len(setups)}",
        "run_s": f"mean over seeds of per-seed medians, {runs} runs",
        "cpu_s": f"mean over seeds of per-seed medians, {runs} runs",
        "peak_rss_mb": "process high-water mark"}


def seed_outputs(out_dir, kind, seeds, name):
    return [os.path.join(out_dir, f"{kind}-{s}", name) for s in seeds]


def per_layer(samples, out_dir, fail_share):
    iters = samples["iterations"]
    traced = by_seed(iters, "traced")
    last = [g[-1]["counters"] for g in traced.values()]

    def total(key):  # a count over the batch: one traced run per seed
        return sum(c.get(key, 0) for c in last)

    def mean(key):  # a time or share: mean over seeds of per-seed medians
        return batch_mean(iters, "traced",
                          lambda it: it[key] if key in it
                          else it["counters"].get(key, 0.0))

    run_s = batch_mean(iters, "untraced", lambda it: it["run_s"])
    traced_run_s = batch_mean(iters, "traced", lambda it: it["run_s"])
    events = total("sim.events.dispatched")
    completions, detect, false_confirms = [], [], 0
    for path in seed_outputs(out_dir, "traced", traced, "completions.csv"):
        completions += [float(r["completion_s"]) for r in read_csv(path)
                        if float(r["completion_s"]) >= 0]
    for path in seed_outputs(out_dir, "traced", traced,
                             "gossip_detection.csv"):
        detect += [float(r["detect_latency_s"]) for r in read_csv(path)
                   if float(r["detect_latency_s"]) >= 0]
    for path in seed_outputs(out_dir, "traced", traced,
                             "gossip_fp_summary.csv"):
        false_confirms += sum(int(float(r["false_confirms"]))
                              for r in read_csv(path))
    dispatch = None  # sim.dispatch.wall_ns, buckets summed over the batch
    for c in last:
        h = c.get("sim.dispatch.wall_ns")
        if h and dispatch is None:
            dispatch = dict(h, buckets=list(h["buckets"]))
        elif h:
            dispatch["buckets"] = [a + b for a, b in
                                   zip(dispatch["buckets"], h["buckets"])]
            dispatch["max"] = max(dispatch["max"], h["max"])

    m = {
        "scenario.parse_s": (mean("parse_s"), "s"),
        "core.setup_s": (mean("setup_s"), "s"),
        "core.teardown_s": (mean("teardown_s"), "s"),
        "engine.barrier_wait_share":
            (mean("perfbench.profile.barrier_wait_share"), "share"),
        "engine.merge_share": (mean("perfbench.profile.merge_share"),
                               "share"),
        "engine.imbalance_ratio":
            (mean("perfbench.profile.imbalance_ratio"), "ratio"),
    }
    for k in range(4):
        p = f"perfbench.profile.shard{k}"
        m[f"engine.shard{k}.utilization_pct"] = (mean(p + ".utilization_pct"),
                                                 "%")
        m[f"engine.shard{k}.cpu_s"] = (mean(p + ".cpu_s"), "s")
    ring = [it["counters"] for g in traced.values() for it in g]
    m["engine.profile_ring_dropped"] = (
        max(c["perfbench.profile.ring_dropped"] for c in ring), "count")
    m["engine.profile_ring_peak"] = (
        max(c["perfbench.profile.ring_peak"] for c in ring), "count")
    for k in ["sim.events.dispatched", "sim.events.scheduled",
              "sim.events.cancelled"]:
        m[k] = (total(k), "count")
    m["sim.cancel_ratio"] = (ratio(total("sim.events.cancelled"),
                                   total("sim.events.scheduled")), "ratio")
    # Rates: the untraced runs' time over the traced runs' exact counts.
    m["sim.events_per_s"] = (ratio(events, run_s * len(traced)), "1/s")
    m["sim.ns_per_event"] = (1e9 * ratio(run_s * len(traced), events), "ns")
    m["sim.dispatch_ns.p50"] = (hist_quantile(dispatch, 0.50)
                                if dispatch else 0.0, "ns")
    m["sim.dispatch_ns.p99"] = (hist_quantile(dispatch, 0.99)
                                if dispatch else 0.0, "ns")
    # sim.slab.capacity is a gauge: the mean per run, not a batch total.
    m["sim.slab.capacity"] = (total("sim.slab.capacity") / len(last),
                              "count")
    for k in ["sim.alloc.callback_heap_fallbacks",
              "net.packets_sent", "net.packets_delivered",
              "net.bytes_delivered", "net.pool.misses",
              "net.packets_unroutable", "ipfw.packets_classified",
              "ipfw.pipe.segments_in", "ipfw.pipe.drops_overflow",
              "ipfw.pipe.drops_loss", "ipfw.pipe.drops_burst",
              "ipfw.pipe.drops_down"]:
        m[k] = (total(k), "bytes" if "bytes" in k else "count")
    m["net.packets_per_event"] = (ratio(total("net.packets_sent"), events),
                                  "ratio")
    m["ipfw.scan_len_mean"] = (ratio(total("ipfw.rules_scanned"),
                                     total("ipfw.packets_classified")),
                               "rules")
    for k in ["sockets.bytes_sent", "sockets.bytes_received",
              "sockets.retransmits", "sockets.fast_retransmits",
              "sockets.rto_recoveries", "sockets.connects_started",
              "sockets.connects_failed", "sockets.crash_aborts",
              "sockets.backpressure_stalls"]:
        m[k] = (total(k), "bytes" if "bytes" in k else "count")
    m["sockets.goodput_ratio"] = (ratio(total("sockets.bytes_received"),
                                        total("sockets.bytes_sent")),
                                  "ratio")
    for k in ["bt.piece_completions", "bt.torrent_completions",
              "bt.announces", "bt.chokes_sent", "bt.unchokes_sent"]:
        m[k] = (total(k), "count")
    m["bt.median_completion_sim_s"] = (
        statistics.median(completions) if completions else 0.0, "sim_s")
    for k in ["gossip.pings", "gossip.ping_reqs", "gossip.confirms"]:
        m[k] = (total(k), "count")
    m["gossip.false_positives"] = (false_confirms, "count")
    m["gossip.detect_latency_sim_s.p50"] = (
        statistics.median(detect) if detect else 0.0, "sim_s")
    m["gossip.detect_latency_sim_s.max"] = (max(detect, default=0.0),
                                            "sim_s")
    m["fault.injected"] = (total("fault.injected"), "count")
    m["fault.recovered"] = (total("fault.recovered"), "count")
    # The first iteration is untraced: its high-water mark holds no
    # profiler rings.
    m["mem.rss_kb_per_vnode"] = (ratio(iters[0]["peak_rss_kb"],
                                       last[0]["perfbench.vnodes"]), "KB")
    m["trace.overhead_share"] = (traced_run_s / run_s - 1.0, "share")
    m["fail_share"] = (fail_share, "share")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment(samples, name):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cores = len(os.sched_getaffinity(0))
    shards = WORKLOADS[name]["shards"]
    return {"git_commit": commit or "unknown (not a git checkout)",
            "build_type": samples["build_type"], "affinity_cores": cores,
            "shards": shards, "degraded_parallelism": int(cores < shards)}


def run_workload(driver, name, seed, seconds, trace):
    samples, out_dir = run_driver(driver, name, seed, seconds, trace)
    problems = check(samples, out_dir, name, seed, recorded(name, seed))
    # The benchmark's operations are the emulation runs it made; a run
    # fails when any check fails. fail_share is the emulated outcome.
    attempted = len(samples["iterations"])
    failed = attempted if problems else 0
    kind = "traced" if trace else "untraced"
    outcome_n = outcome_failed = 0
    for sub in sub_seeds(name, seed):
        n, f = outcomes(name, os.path.join(out_dir, f"{kind}-{sub}"))
        outcome_n += n
        outcome_failed += f
    if problems:  # a failed check fails every outcome of the run
        outcome_failed = outcome_n
    fail_share = ratio(outcome_failed, outcome_n)
    if trace:
        metrics = per_layer(samples, out_dir, fail_share)
        for k, v in metrics.items():
            print(f"# {name} {k} = {v['value']:.6g} {v['unit']}")
    else:
        e2e, n = end_to_end(samples)
        units = dict(END_TO_END)
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in e2e}
        for k in e2e:
            print(f"# {name} {k} = {e2e[k]:.6g} {units[k]} ({n[k]})")
        print(f"# {name} fail_share = {fail_share:.6g} share "
              f"({outcome_failed}/{outcome_n} outcomes, one run per seed)")
    env = environment(samples, name)
    for p in problems:
        print(f"# CHECK FAILED {name}: {p}")
    print(f"# {name} env " + json.dumps(env))
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"workload": name, "seed": seed, "trace": trace,
                   "env": env, "problems": problems, **result}, f, indent=1)
    return result


def record(driver, names):
    """Rewrite the expected.json entries of `names`: output digest and
    exact counts per --seed and engine seed. A workload with K>1 shards is
    run at K=1 too, and its outputs must not change."""
    table = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            table = {k: v for k, v in json.load(f).items() if k in WORKLOADS}
    for name in names:
        w = WORKLOADS[name]
        table[name] = {}
        for seed in RECORDED_SEEDS:
            samples, out_dir = run_driver(driver, name, seed, 0, 1,
                                          tag=f"record-{name}-{seed}")
            problems = check(samples, out_dir, name, seed, {})
            entry = {}
            for it in samples["iterations"]:
                entry[str(it["seed"])] = {"digest": it["digest"],
                                          "counts": exact_counts(it)}
            if w["shards"] > 1:
                k1, _ = run_driver(driver, name, seed, 0, 0,
                                   extra=["engine.shards=1"],
                                   tag=f"record-{name}-{seed}-k1")
                problems += [f"engine.seed={it['seed']}: K=1 outputs differ"
                             for it in k1["iterations"]
                             if it["digest"] != entry[str(it["seed"])]
                             ["digest"]]
            if problems:
                die(f"record {name} seed {seed}: {problems}", 1)
            table[name][str(seed)] = entry
            print(f"# recorded {name} --seed {seed}: {entry}")
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")
    for needed in ("src/CMakeLists.txt", "scenarios/accuracy.scn"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} not found: run from the root of a full checkout")
    names = sorted(WORKLOADS) if args.workload in (None, "all") \
        else [args.workload]
    cores = len(os.sched_getaffinity(0))
    for name in names:
        if cores < WORKLOADS[name]["shards"]:
            die(f"refusing {name}: the affinity mask holds {cores} cores, "
                f"fewer than its {WORKLOADS[name]['shards']} shards", 3)
    driver = build()
    if args.record:
        record(driver, names)
        return 0
    ok = True
    for name in names:
        result = run_workload(driver, name, args.seed, args.seconds,
                              args.trace)
        ok = ok and result["correct"]
        print(json.dumps(result))
    sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
