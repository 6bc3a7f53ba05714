#!/usr/bin/env python3
"""DLearn benchmark: one run of one workload, end to end.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload products-md --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload products-md --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

The first run in a checkout compiles the program's sources together with the
harness (sbt, offline); later runs reuse the build while the sources are
unchanged. The harness JVM runs with a fixed, explicit heap (HEAP). Human-readable
lines come first on stdout; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones, and the traced run
also writes its spans under perfbench/out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
BUILD_STAMP = os.path.join(HERE, "target", "bench-build.json")
OUT_DIR = os.path.join(HERE, "out")
MAIN_CLASS = "repro.perfbench.Main"
PROGRAM_SOURCES = os.path.join("src", "main", "scala")
PROGRAM_JOBS = "jobs"
WORKLOADS = ("products-md", "papers-md", "products-md-k10", "movies-cfd")
RUN_TIMEOUT_S = 170
# Harness JVM heap, as -Xmx and -Xms. Fixed, so that every run measures the
# same heap and GC behaviour; the program's build would fall back to -Xmx48g.
HEAP = "3g"
# Shuffle partitions of the harness's Spark session (the program's
# JobSession.local reads SPARK_SHUFFLE_PARTITIONS). One per core of a 4-CPU
# machine: at the benchmark's scale, the program's default of 64 makes an
# index build mostly task scheduling (see README.md).
SHUFFLE_PARTITIONS = "4"
BUILD_TIMEOUT_S = 840

# Spark on JDK 17 needs the module system opened up, as in the program's build.
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]

END_TO_END = ("time_to_model_s", "f1", "setup_s", "heap_mb")
PER_LAYER = (
    "dirty.generate_s", "db.collect_s", "db.tuples",
    "simjoin.build_s", "simjoin.cross_pairs", "simjoin.block_pairs", "simjoin.scored_pairs",
    "simjoin.block_selectivity", "simjoin.useful_ratio", "simjoin.index_entries", "simjoin.recall",
    "bottom.build_s", "bottom.lits_mean", "bottom.lits_max", "bottom.sim_lits_mean",
    "bottom.sample_cap_hits",
    "expand.ground_s", "expand.versions_mean", "expand.cap_hits",
    "learn.learn_s", "learn.clauses", "learn.literals",
    "generalize.armg_calls", "generalize.armg_us_p50",
    "coverage.tests", "coverage.test_us_p50", "coverage.test_us_p99", "coverage.covered_frac",
    "coverage.expand_s",
    "eval.eval_s",
    "trace.overhead_frac",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_bounded(cmd, cwd, env, timeout_s, stdout):
    """Run `cmd` in its own process group; on timeout, or when this script is
    terminated, kill the whole group. Always waits for the process to end.
    Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for s, h in previous.items():
            signal.signal(s, h)


def source_digest(root):
    """Digest of everything the build compiles: the program's sources and
    jobs, and the harness's sources and build files."""
    h = hashlib.sha256()
    tops = [os.path.join(root, PROGRAM_SOURCES), os.path.join(root, PROGRAM_JOBS),
            os.path.join(HERE, "src"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for top in tops:
        for d, subdirs, names in os.walk(top):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            files.extend(os.path.join(d, n) for n in names)
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(root):
    """Compile with sbt unless the stamp says the sources are unchanged.
    Returns the runtime classpath."""
    digest = source_digest(root)
    if os.path.exists(BUILD_STAMP):
        with open(BUILD_STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("digest") == digest:
            return stamp["classpath"], digest
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    for flag in ("-Dsbt.offline=true", "-Dsbt.override.build.repos=true", "-Xmx2g"):
        key = flag.split("=")[0] if flag.startswith("-D") else "-Xmx"
        if key not in opts:
            opts += " " + flag
    env["SBT_OPTS"] = opts.strip()
    cp_file = os.path.join(HERE, "target", "bench-classpath.txt")
    os.makedirs(os.path.dirname(cp_file), exist_ok=True)
    log("[perfbench] building (sbt compile) ...")
    t0 = time.time()
    with open(cp_file, "w") as fh:
        code = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                            "export Runtime/fullClasspath"],
                           HERE, env, BUILD_TIMEOUT_S, fh)
    if code != 0:
        raise SystemExit("[perfbench] build failed (sbt exit %s)" % code)
    with open(cp_file) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.startswith("[")]
    classpath = lines[-1] if lines else ""
    if "target" not in classpath:
        raise SystemExit("[perfbench] build produced no classpath")
    with open(BUILD_STAMP, "w") as fh:
        json.dump({"digest": digest, "classpath": classpath}, fh)
    log("[perfbench] built in %.0f s" % (time.time() - t0))
    return classpath, digest


def git_rev(root):
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"


def run_jvm(root, classpath, workload, seed, seconds, trace, extra=()):
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%s-trace%d%s" % (workload, seed, trace, "".join(extra[1::2]))
    out = os.path.join(OUT_DIR, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spark_dir = os.path.join(OUT_DIR, "spark")
    cmd = (["java", "-Xmx" + HEAP, "-Xms" + HEAP, "-XX:+AlwaysPreTouch", "-XX:+IgnoreUnrecognizedVMOptions"] + JVM_OPENS +
           ["-Djdk.reflect.useDirectMethodHandleAccessor=false",
            "-Dspark.driver.host=127.0.0.1",
            "-Dspark.ui.enabled=false",
            "-Dspark.local.dir=" + os.path.join(spark_dir, "local"),
            "-Dspark.sql.warehouse.dir=" + os.path.join(spark_dir, "warehouse"),
            "-Djava.io.tmpdir=" + tmp,
            "-cp", classpath, MAIN_CLASS,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out] + list(extra))
    env = dict(os.environ, SPARK_SHUFFLE_PARTITIONS=SHUFFLE_PARTITIONS)
    env.pop("SPARK_MASTER", None)
    code = run_bounded(cmd, root, env, RUN_TIMEOUT_S, sys.stderr)
    if code is None:
        raise SystemExit("[perfbench] run timed out after %d s" % RUN_TIMEOUT_S)
    if code != 0 or not os.path.exists(out):
        raise SystemExit("[perfbench] harness exited with %s and wrote no result" % code)
    with open(out) as fh:
        return json.load(fh), out


def report(res, rev, digest, nproc):
    env = res["env"]
    print("[perfbench] workload=%s seed=%s trace=%s instances=%s scale=%s" % (
        res["workload"], res["seed"], res["trace"], res["instances"], res["scale"]))
    print("[perfbench] env nproc=%s jvm_nproc=%s spark_master=%s shuffle_partitions=%s "
          "xmx=%s (-Xmx%s) java=%s git_rev=%s src_digest=%s par_pool=%s (%s threads seen)" % (
              nproc, env["nproc"], env["spark_master"], env["shuffle_partitions"],
              env["xmx_mb"], HEAP, env["java_version"], rev, digest[:16], env["par_pool"],
              env["par_pool_threads"]))
    print("[perfbench] jobs attempted=%d failed=%d spark_start_s=%.2f measured_s=%.2f" % (
        res["attempted"], res["failed"], res["spark_start_s"], res["measured_s"]))
    print("[perfbench] definition digests per instance: %s (instances whose definition varied: %s, "
          "distinct digests: %s)" % (json.dumps(res["digests"]),
                                     res["instances_with_varying_definition"],
                                     res["distinct_digests"]))
    for f in res["failures"]:
        print("[perfbench] FAIL " + f)
    metrics = list(res["metrics"].items())
    if res["trace"] is False:
        # Failures gate `correct`; their share is printed, not bounded.
        metrics.append(("failed_frac", {"value": res["failed"] / res["attempted"], "unit": "ratio"}))
    for name, m in metrics:
        value = m["value"] if m["value"] is not None else float("nan")
        print("[perfbench] %-28s %14.6g %s" % (name, value, m["unit"]))


def self_test(root, classpath):
    """Each workload once at ExpScale.tiny, untraced and traced: every named
    metric is emitted with a unit and a value, and the run reports no
    failure. A traced run fails itself when a span has negative self time or
    lies outside its parent, and it must have written its spans."""
    problems = []
    for w in WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            res, out = run_jvm(root, classpath, w, 1, 1, trace, extra=("--scale", "tiny"))
            ms = res["metrics"]
            for n in names:
                m = ms.get(n, {})
                if not m.get("unit") or not isinstance(m.get("value"), (int, float)):
                    problems.append("%s trace=%d: metric %s missing, or without unit or value"
                                    % (w, trace, n))
            problems += ["%s trace=%d: %s" % (w, trace, f) for f in res["failures"]]
            if trace:
                with open(out[:-len(".json")] + ".spans.json") as fh:
                    if not json.load(fh)["spans"]:
                        problems.append("%s: no spans recorded" % w)
            print("[self-test] %s trace=%d: %d metrics, %d failures" % (
                w, trace, len(ms), len(res["failures"])))
    for p in problems[:50]:
        print("[self-test] PROBLEM " + p)
    print("[self-test] %s" % ("ok" if not problems else "FAILED (%d problems)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, PROGRAM_SOURCES, "repro")) or \
            not os.path.isfile(os.path.join(root, BENCH_DIR, "build.sbt")):
        log("[perfbench] run from the root of a checkout: %s/repro and %s/build.sbt not found"
            % (PROGRAM_SOURCES, BENCH_DIR))
        return 2

    classpath, digest = build(root)
    if a.self_test:
        return self_test(root, classpath)

    res, _ = run_jvm(root, classpath, a.workload, a.seed, a.seconds, a.trace)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    report(res, git_rev(root), digest, nproc)
    names = PER_LAYER if a.trace else END_TO_END
    missing = [n for n in names if res["metrics"].get(n, {}).get("value") is None]
    if missing:
        log("[perfbench] harness reported no value for: " + ", ".join(missing))
        return 1
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: res["metrics"][n] for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
