#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload grid|serve|serve_distill|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds librubik,
rubik_cli and perfbench_driver from the checkout's sources in Release
under $CARGO_TARGET_DIR (default .bench_build). With --trace 0 the last
stdout line reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports its per-layer metrics, from a traced run. Every
workload reports every one of them. The line before it holds the
workload's own detail metrics. Every workload checks its outputs; a
failed check counts as a failed operation.
See perfbench/README.md for the metrics and what each should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The sweep workload's grid; its two seeds come from --seed.
SWEEP_SPEC = """apps = masstree,specjbb,xapian
loads = 0.2,0.4,0.6,0.8
policies = fixed,static,pegasus,rubik
seeds = {s1},{s2}
requests = 1000
"""
WORKLOADS = ["grid", "serve", "serve_distill", "sweep"]
SWEEP_SHARDS = 2
SWEEP_BATCH_CELLS = 8
SETUP_REPS = 2


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def build_dir():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    return os.path.join(target, "perfbench")


def build():
    """Configure and build in Release; returns the binaries' paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/; run this from "
             "the root of a full checkout", 2)
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs, "--target",
                            "perfbench_driver", "rubik_cli"]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, cwd=ROOT)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "rubik", "tools", "rubik_cli"))


def fingerprint(driver):
    """Host and build identity; refuses a non-Release build."""
    info = json.loads(subprocess.run([driver, "build-info"], check=True,
                                     stdout=subprocess.PIPE).stdout)
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    info["cpu_model"] = cpu
    info["nproc"] = len(os.sched_getaffinity(0))
    if info["build_type"] != "Release" or not info["ndebug"] or \
            not info["optimized"]:
        fail("refusing to measure a non-Release build: " + json.dumps(info))
    return info


def manifest_metrics(trace):
    """(name, unit) of the metrics the result line must hold."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(driver, args):
    # The benchmark controls every trace cache itself.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RUBIK_TRACE_CACHE")}
    r = subprocess.run([driver] + args, stdout=subprocess.PIPE, cwd=ROOT,
                       env=env)
    if r.returncode != 0:
        fail("perfbench_driver %s exited with %d" % (args[0], r.returncode))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def run_measured(argv, stdout_path, stderr_path):
    """Run to completion; returns (exit code, wall s, cpu s, maxrss MB)
    of the process and every descendant it waited for."""
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return (p.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def ledger_ok(path, csv_rows):
    """One record per cell, each equal to the local CSV's row."""
    records = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(" ", 2)
            if len(fields) != 3 or not fields[0].isdigit() or \
                    int(fields[0]) in records:
                return False, len(records)
            records[int(fields[0])] = fields[2]
    ok = sorted(records) == list(range(len(csv_rows))) and \
        all(records[i] == csv_rows[i] for i in records)
    return ok, len(records)


def cache_usage(path):
    files = [f for f in os.listdir(path) if f.endswith(".rtrace")]
    size = sum(os.path.getsize(os.path.join(path, f)) for f in files)
    return len(files), size / (1024.0 * 1024.0)


def run_sweep(driver, cli, seed, seconds, trace, work):
    spec = os.path.join(work, "grid.spec")
    with open(spec, "w") as f:
        f.write(SWEEP_SPEC.format(s1=2 * seed + 1, s2=2 * seed + 2))
    errlog = os.path.join(work, "stderr.log")
    attempted = failed = 0
    errors = []

    def sweep(tag, extra):
        cache = os.path.join(work, "cache-" + tag)
        shutil.rmtree(cache, ignore_errors=True)
        os.mkdir(cache)
        out = os.path.join(work, tag + ".out")
        code, wall, cpu, rss = run_measured(
            [cli, "sweep", "--spec", spec, "--trace-cache", cache] + extra,
            out, errlog)
        if code != 0:
            with open(errlog, "rb") as f:
                sys.stderr.write(f.read()[-2000:].decode(errors="replace"))
            fail("rubik_cli sweep (%s) exited with %d" % (tag, code))
        return out, cache, wall, cpu, rss

    setup = []

    def dry_run():
        """Times SETUP_REPS dry runs. Called before every dispatched run,
        so the samples spread over the run."""
        for _ in range(SETUP_REPS):
            code, wall, _, _ = run_measured(
                [cli, "sweep", "--spec", spec, "--dry-run"],
                os.path.join(work, "dry-run.out"), errlog)
            if code != 0:
                fail("rubik_cli sweep --dry-run exited with %d" % code)
            setup.append(wall)

    dry_run()
    with open(os.path.join(work, "dry-run.out")) as f:
        cells = sum(1 for line in f if line.strip()) - 1  # header

    local_csv, _, _, local_cpu, _ = sweep("local", ["--backend", "local",
                                                    "--jobs", "1"])
    with open(local_csv, "rb") as f:
        reference = f.read()
    ref_rows = reference.decode().splitlines()[1:]
    attempted += cells
    if len(ref_rows) != cells:
        failed += cells
        errors.append("local CSV has %d rows for %d cells"
                      % (len(ref_rows), cells))

    def check_csv(path, tag):
        nonlocal failed
        with open(path, "rb") as f:
            got = f.read()
        if got != reference:
            rows = got.decode(errors="replace").splitlines()[1:]
            bad = sum(1 for i, r in enumerate(ref_rows)
                      if i >= len(rows) or rows[i] != r)
            failed += max(bad, 1)
            errors.append("%s CSV differs from the local CSV" % tag)

    dispatch = ["--backend", "subprocess", "--shards", str(SWEEP_SHARDS),
                "--jobs", "1"]
    static, dynamic = [], []
    ledger_records = 0
    cache_files = cache_mb = 0
    start = time.perf_counter()
    pair = 0
    while pair < 3 or time.perf_counter() - start < seconds:
        # Alternate which dispatch path goes first.
        for kind in (("static", "dynamic") if pair % 2 == 0
                     else ("dynamic", "static")):
            dry_run()
            if kind == "static":
                out, cache, wall, cpu, rss = sweep("static", dispatch)
                check_csv(out, "static")
                static.append((wall, cpu, rss))
                cache_files, cache_mb = cache_usage(cache)
            else:
                csv = os.path.join(work, "dynamic.csv")
                for stale in (csv, csv + ".ledger", csv + ".ledger.work"):
                    if os.path.exists(stale):
                        os.remove(stale)
                _, _, wall, cpu, rss = sweep("dynamic", dispatch + [
                    "--schedule", "dynamic", "--out", csv,
                    "--batch-cells", str(SWEEP_BATCH_CELLS)])
                check_csv(csv, "dynamic")
                ok, ledger_records = ledger_ok(csv + ".ledger", ref_rows)
                if not ok:
                    failed += 1
                    errors.append("ledger is not one record per cell")
                dynamic.append((wall, cpu, rss))
            attempted += cells
        pair += 1

    def med(runs, i):
        return statistics.median(r[i] for r in runs)

    runs = static + dynamic
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r[2] for r in runs),
        # Mean over all dispatched runs: a run's wall time is bimodal
        # (shards overlap or serialize on shared trace generation), and
        # a median would jump between the modes.
        "wall_s": sum(r[0] for r in runs) / len(runs),
        "process.cpu_s": med(runs, 1),
        "static_cells_per_s": cells * len(static) / sum(r[0] for r in static),
        "dynamic_cells_per_s": cells * len(dynamic) / sum(r[0]
                                                          for r in dynamic),
        "runner.child_cpu_s": med(static, 1),
        "runner.local_cpu_s": local_cpu,
        "runner.overhead_cpu_s": med(static, 1) - local_cpu,
        "runner.parallel_eff": statistics.median(
            r[1] / (r[0] * SWEEP_SHARDS) for r in static),
        "runner.dynamic_child_cpu_s": med(dynamic, 1),
        "runner.dynamic_parallel_eff": statistics.median(
            r[1] / (r[0] * SWEEP_SHARDS) for r in dynamic),
        "runner.ledger_records": ledger_records,
        "workloads.cache_files": cache_files,
        "workloads.cache_mb": cache_mb,
    }
    if trace:
        layers = run_driver(driver, ["sweep-layers", "--spec", spec,
                                     "--csv", local_csv])
        attempted += layers["attempted"]
        failed += layers["failed"]
        errors += layers["errors"]
        metrics.update(layers["metrics"])
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "errors": errors}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    driver, cli = build()
    host = fingerprint(driver)
    print(json.dumps({"fingerprint": host}), flush=True)

    work = os.path.join(os.path.dirname(build_dir()), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        if args.workload == "grid":
            result = run_driver(driver, ["grid"] + common + [
                "--pinned", os.path.join(HERE, "grid_digests.txt")])
        elif args.workload in ("serve", "serve_distill"):
            # A relative socket path keeps it under the 108-byte limit.
            sock = os.path.relpath(os.path.join(work, "serve.sock"), ROOT)
            extra = ["--distill"] if args.workload == "serve_distill" else []
            result = run_driver(driver, ["serve"] + common + [
                "--cli", cli, "--socket", sock] + extra)
        else:
            result = run_sweep(driver, cli, args.seed, args.seconds,
                               args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in result["errors"]:
        log("check failed: " + e)
    metrics = {}
    for name, unit in manifest_metrics(args.trace):
        if name not in result["metrics"]:
            fail("workload did not report " + name)
        metrics[name] = {"value": result["metrics"].pop(name), "unit": unit}
    # Metrics of this workload alone; see perfbench/README.md.
    print(json.dumps({"detail": result["metrics"]}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
