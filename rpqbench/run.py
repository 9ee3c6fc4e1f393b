#!/usr/bin/env python3
"""Streaming RPQ engine benchmark.

Usage, from the root of the repository:

    python3 rpqbench/run.py --workload so-insert --seed 1 --seconds 10 --trace 0

Builds the repository's program together with the benchmark code in this
directory (sbt, offline), then runs one workload in fresh JVMs that share
`--seconds` between them; each also times one cold set-up.
Prints the full report as one JSON line and, as the last line, a summary with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["so-insert", "yago-delete", "so-simple"]
HOLDOUT_SEED = 20200614
# Fixed heap, serial GC and pre-touched pages keep per-pass times steady.
JVM_FLAGS = ["-Xms1g", "-Xmx1g", "-XX:+UseSerialGC", "-XX:+AlwaysPreTouch"]
# Whole JVMs differ by several percent in steady-state speed (JIT decisions),
# so an untraced run measures in several, pools their passes, and takes the
# median of their cold set-ups.
MEASURING_JVMS = 3
# Nominal time of one HostSpeed walk. Timings are reported as if every walk of
# their pass had taken this long (see README.md).
HOST_WALK_NS = 1.5e6
RUN_DEADLINE_S = 165
BUILD_TIMEOUT_S = 840
STAMP = os.path.join(HERE, "target", "rpqbench-classpath.json")
RSPQ_NOTE = ("RSPQ counts (delta_nodes, core.conflicts) depend on the identity-hash iteration "
             "order of RspqEngine's mutable.Set[PNode]; treat them as measured values, "
             "not exact counts.")

# Percentiles the tail is chosen from, in hundredths of a percent.
LADDER = [5000, 7500, 9000, 9500, 9900, 9990, 9999]


def rank_index(n, pp):
    """Nearest-rank index of percentile `pp` (hundredths of a percent) among
    `n` sorted samples."""
    return max(0, -(-n * pp // 10000) - 1)


def beyond(n, pp):
    """Samples ranked above percentile `pp` among `n`."""
    return n - 1 - rank_index(n, pp)


def tail_percentile(n, min_beyond=10):
    """Highest ladder percentile with at least `min_beyond` of `n` samples
    beyond it, or None when not even the median has that many."""
    for pp in reversed(LADDER):
        if beyond(n, pp) >= min_beyond:
            return pp
    return None


def percentile(sorted_xs, pp):
    return sorted_xs[rank_index(len(sorted_xs), pp)] if sorted_xs else 0


def die(msg):
    print(f"rpqbench: {msg}", file=sys.stderr)
    sys.exit(1)


def sources_digest():
    """Digest of everything the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(HERE, "src", "main")]:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def sbt_env():
    """Resolve offline only, from the local caches."""
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    opts = env.get("SBT_OPTS", "")
    if not opts:
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.isfile(repos):
            opts = f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    if "-Dsbt.offline=true" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts.strip()
    return env


def classes_digest(classpath):
    """Digest of the compiled classes the classpath names. The class
    directories are shared with the root build, so a root `sbt compile` of
    other sources can rewrite them without touching the sources digested
    here; a changed class forces a rebuild."""
    h = hashlib.sha256()
    for entry in classpath.split(os.pathsep):
        if entry.endswith(".jar"):
            continue
        for d, _, names in sorted(os.walk(entry)):
            for n in sorted(names):
                f = os.path.join(d, n)
                h.update(f.encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the sources and the compiled classes match the
    last build; return the runtime classpath."""
    digest = sources_digest()
    if os.path.isfile(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("digest") == digest and stamp.get("classes") == classes_digest(stamp["classpath"]):
            return stamp["classpath"]
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    lines = [l for l in out.stdout.splitlines()
             if os.pathsep in l and "classes" in l and not l.startswith("[")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:])
        die("build failed")
    entries = lines[-1].strip().split(os.pathsep)
    # Class directories and the Scala library first: a class lookup then never
    # opens the other jars, which keeps cold set-up times steady.
    dirs = [e for e in entries if not e.endswith(".jar")]
    scala = [e for e in entries if os.path.basename(e).startswith("scala-library")][:1]
    classpath = os.pathsep.join(dirs + scala + [e for e in entries if e not in dirs and e not in scala])
    os.makedirs(os.path.dirname(STAMP), exist_ok=True)
    with open(STAMP, "w") as fh:
        json.dump({"digest": digest, "classes": classes_digest(classpath), "classpath": classpath}, fh)
    return classpath


def host_scale(p):
    """Factor that brings a pass's times to a host that runs a HostSpeed walk
    in HOST_WALK_NS."""
    return HOST_WALK_NS / statistics.median(p["host_walk_ns"])


def java(classpath, args, timeout):
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else "java"
    if timeout < 1:
        die(f"{' '.join(args)}: no time left before the deadline")
    try:
        out = subprocess.run([exe, *JVM_FLAGS, "-cp", classpath, "rpqbench.Main", *args],
                             cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"{' '.join(args)}: timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        die(f"{' '.join(args)}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def tps(p, scale=1.0):
    return p["timed_tuples"] / (p["wall_ns"] * scale / 1e9)


def end_to_end(forks, setups):
    """Timings scaled per pass by host_scale, set-up time by the passes'
    median factor. Latencies pooled over every timed pass of every measuring
    JVM; the other metrics are medians of per-pass values."""
    passes = [p for f in forks for p in f["passes"] if not p["traced"]]
    scales = [host_scale(p) for p in passes]
    arrivals = sorted(x * s for p, s in zip(passes, scales) for x in p["arrival_ns"])
    slides = sorted(x * s for p, s in zip(passes, scales) for x in p["slide_ns"])
    # The tail percentile follows from the guaranteed sample count, so it does
    # not change with how many passes fit into a run.
    guaranteed = len(forks) * forks[0]["min_timed_passes"] * min(p["slides"] for p in passes)
    tail = tail_percentile(guaranteed) or 5000
    metrics = {
        "throughput_tps": (statistics.median(tps(p, s) for p, s in zip(passes, scales)), "tuples/s"),
        "latency_p50_us": (percentile(arrivals, 5000) / 1e3, "us"),
        "latency_p99_us": (percentile(arrivals, 9900) / 1e3, "us"),
        "slide_p50_us": (percentile(slides, 5000) / 1e3, "us"),
        "slide_tail_us": (percentile(slides, tail) / 1e3, "us"),
        "delta_nodes": (statistics.median(p["nodes_per_slide"] for p in passes), "count"),
        "heap_live_mb": (statistics.median(p["heap_bytes"] for p in passes) / 2**20, "MB"),
        # The set-ups run in the same minute as the passes, so they take the
        # passes' median factor.
        "setup_s": (statistics.median(setups) * statistics.median(scales), "s"),
    }
    samples = {
        "timed_passes": len(passes),
        "arrival_samples": len(arrivals),
        "latency_p99_beyond": beyond(len(arrivals), 9900),
        "slide_samples": len(slides),
        "slide_tail_percentile": tail / 100,
        "slide_tail_beyond": beyond(len(slides), tail),
        "setup_samples": len(setups),
        "per_pass_throughput_tps": [tps(p, s) for p, s in zip(passes, scales)],
        "per_pass_host_scale": scales,
        "unscaled_throughput_tps": statistics.median(tps(p) for p in passes),
        "unscaled_latency_p50_us": percentile(sorted(x for p in passes for x in p["arrival_ns"]), 5000) / 1e3,
        "unscaled_setup_s": statistics.median(setups),
        "host_walks": sum(len(p["host_walk_ns"]) for p in passes),
    }
    return metrics, samples


def per_layer(fork):
    """Medians over the traced passes of one JVM, which alternates them with
    untraced passes."""
    untraced = [p for p in fork["passes"] if not p["traced"]]
    traced = [p for p in fork["passes"] if p["traced"]]
    med = lambda f, ps=traced: statistics.median(f(p) for p in ps)
    shadow = lambda k: statistics.median(s[k] for s in fork["shadow"])
    deletes = sorted(x for p in traced for x in p["delete_ns"])
    m = {
        "automaton.compile_ms": (fork["compile_ms"], "ms"),
        "automaton.containment_ms": (fork["containment_ms"], "ms"),
        "automaton.dfa_states": (fork["dfa_states"], "count"),
        "stream.add_ns": (shadow("add_ns"), "ns"),
        "stream.remove_ns": (shadow("remove_ns"), "ns"),
        "stream.prune_ms": (shadow("prune_ms"), "ms"),
        "stream.prune_scanned": (shadow("prune_scanned"), "count"),
        "stream.prune_removed": (shadow("prune_removed"), "count"),
        "stream.prune_useful_ratio": (shadow("prune_useful_ratio"), "ratio"),
        "stream.window_edges": (shadow("window_edges"), "count"),
        "core.arrival_ms": (med(lambda p: p["arrival_total_ns"]) / 1e6, "ms"),
        "core.filtered_ms": (med(lambda p: p["filtered_total_ns"]) / 1e6, "ms"),
        "core.slide_ms": (med(lambda p: p["slide_total_ns"]) / 1e6, "ms"),
        "core.delete_ms": (med(lambda p: p["delete_total_ns"]) / 1e6, "ms"),
        "core.expiry_ms": (med(lambda p: p["expiry_ns"]) / 1e6, "ms"),
        "core.emissions_per_result": (fork["emissions_per_result"], "ratio"),
        "core.nodes_scanned_per_slide": (med(lambda p: p["nodes_scanned_per_slide"]), "count"),
        "core.nodes_net_removed_per_slide": (med(lambda p: p["nodes_net_removed_per_slide"]), "count"),
        "core.delete_p50_us": (percentile(deletes, 5000) / 1e3, "us"),
        "core.deletes_effective_ratio": (
            sum(p["deletes_effective"] for p in traced) / max(1, sum(p["deletes"] for p in traced)), "ratio"),
        "core.conflicts": (med(lambda p: p["conflicts"]), "count"),
        "core.conflicts_per_tuple": (med(lambda p: p["conflicts"] / p["timed_tuples"]), "ratio"),
        "core.budget_exceeded": (sum(p["budget_exceeded"] for p in traced), "count"),
        "core.trees": (med(lambda p: p["trees_per_slide"]), "count"),
        "core.nodes": (med(lambda p: p["nodes_per_slide"]), "count"),
        "jvm.gc_ms": (med(lambda p: p["gc_ns"], untraced) / 1e6, "ms"),
        "jvm.gc_count": (med(lambda p: p["gc_count"], untraced), "count"),
        "jvm.calib_cpu_ms": (fork["calib_cpu_ms"], "ms"),
        "jvm.calib_mem_ms": (fork["calib_mem_ms"], "ms"),
        "jvm.host_walk_us": (statistics.median(x for p in fork["passes"] for x in p["host_walk_ns"]) / 1e3, "us"),
        "batch.oracle_ms": (statistics.median(fork["oracle_ms"]), "ms"),
        "batch.oracle_pairs": (statistics.median(fork["oracle_pairs"]), "count"),
        "batch.mismatches": (fork["mismatched_pairs"], "count"),
        "data.gen_ms": (statistics.median(fork["gen_ms"]), "ms"),
        "trace.overhead_ratio": (med(tps) / med(tps, untraced), "ratio"),
    }
    samples = {"untraced_passes": len(untraced), "traced_passes": len(traced), "delete_samples": len(deletes)}
    return m, samples


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        die("the repository's sources are not next to this directory; run from a checkout")

    classpath = build()
    start = time.monotonic()
    left = lambda: RUN_DEADLINE_S - (time.monotonic() - start)

    n_forks = 1 if a.trace else MEASURING_JVMS
    forks = []
    for i in range(n_forks):
        # Each JVM gets an equal share of what is left, so none overruns the run.
        deadline = left() / (n_forks - i) - 5
        forks.append(java(classpath, ["run", a.workload, str(a.seed), str(i), str(a.seconds / n_forks),
                                      str(a.trace), str(deadline)], left()))
    setups = [f["setup_s"] for f in forks]
    attempted = sum(f["attempted"] for f in forks)
    failed = sum(f["failed"] for f in forks)

    checks = {
        "oracle": "BruteForceSimple" if forks[0]["inputs"]["rspq_step_budget"] else "BatchRpq",
        "oracle_pairs": [n for f in forks for n in f["oracle_pairs"]],
        "mismatched_pairs": sum(f["mismatched_pairs"] for f in forks),
        "passes_checked": sum(f["passes_checked"] for f in forks),
        "expiry_runs_identity": all(f["expiry_runs_identity"] for f in forks),
        "window_edges_match": all(f["window_edges_match"] for f in forks),
    }
    correct = (checks["mismatched_pairs"] == 0 and checks["expiry_runs_identity"]
               and checks["window_edges_match"])
    metrics, samples = per_layer(forks[0]) if a.trace else end_to_end(forks, setups)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    samples.update(measuring_jvms=n_forks, warmup_passes_per_jvm=forks[0]["warmup_passes"],
                   streams=sum(len(f["stream_lengths"]) for f in forks),
                   stream_length_median=statistics.median(n for f in forks for n in f["stream_lengths"]),
                   measured_seconds=sum(f["measured_seconds"] for f in forks))
    report = {
        "workload": a.workload, "seed": a.seed, "holdout_seed": HOLDOUT_SEED, "trace": a.trace,
        "claim": None, "correct": correct, "attempted": attempted, "failed": failed,
        "failed_share": failed / max(1, attempted), "metrics": metrics, "samples": samples,
        "setup_s_samples": setups, "checks": checks, "inputs": forks[0]["inputs"],
        "jvm_flags": JVM_FLAGS,
        "notes": RSPQ_NOTE if checks["oracle"] == "BruteForceSimple" else None,
    }
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
