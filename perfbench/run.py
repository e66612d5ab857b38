#!/usr/bin/env python3
"""Run one benchmark workload against the program's sources.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # BENCHMARK.json's workloads in turn

Run from the root of a checkout. The first run builds the program's main
sources together with the benchmark driver (perfbench/build.sbt) into
.bench_build/, and later runs reuse that build while the sources are
unchanged. Each run gets fresh store directories under .bench_build/runs/,
deleted when it ends; its environment record, result and (traced) spans are
kept under .bench_build/results/.

The last line of standard output is the result: a JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 they are its per_layer
metrics. The exit code is 0 only when a result was printed.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import zipfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "jobs")]
WORKLOADS = ["branch-commit", "history-analytics"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
DRIVER_HEAP = "3g"
ARCHIVE = os.path.join(BUILD, "classes.jsa")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    roots = SOURCES + [os.path.join(BENCH, "src"), os.path.join(BENCH, "build.sbt"),
                       os.path.join(BENCH, "project", "build.properties"), __file__]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(digest):
    """Compile with sbt unless this digest was built; return the classpath.

    The compiled classes are packed into one jar, and a short training run
    records the classes it loads into a class-data-sharing archive that
    every later JVM maps at start-up. That cuts each run's start-up by a
    few seconds without touching what the timed ops execute.
    """
    stamp = os.path.join(BUILD, "build.json")
    if os.path.exists(stamp):
        with open(stamp) as f:
            done = json.load(f)
        if done.get("digest") == digest:
            return done["classpath"]
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
           "compile", "export Runtime/fullClasspath"]
    p = subprocess.Popen(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True, stdin=subprocess.DEVNULL,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("build timed out", 3)
    sys.stderr.write(out)
    target = os.path.join(BUILD, "target")
    cps = [l for l in out.splitlines() if l.startswith(target)]
    if p.returncode != 0 or not cps:
        fail("build failed", 3)
    classes, rest = cps[-1].split(os.pathsep, 1)
    jar = os.path.join(BUILD, "perfbench.jar")
    with zipfile.ZipFile(jar, "w") as z:
        for d, _, fs in os.walk(classes):
            for f in sorted(fs):
                z.write(os.path.join(d, f), os.path.relpath(os.path.join(d, f), classes))
    classpath = jar + os.pathsep + rest
    if os.path.exists(ARCHIVE):
        os.remove(ARCHIVE)
    train = argparse.Namespace(workload="branch-commit", seed=0, seconds=0.001, trace=0)
    proc, work, _ = start_jvm(classpath, train, [f"-XX:ArchiveClassesAtExit={ARCHIVE}"])
    try:
        proc.communicate(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 and os.path.exists(ARCHIVE):
        os.remove(ARCHIVE)
    with open(stamp, "w") as f:
        json.dump({"digest": digest, "classpath": classpath}, f)
    return classpath


def revision(digest):
    """The git commit of the sources when there is one, and their digest."""
    rev = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, stdin=subprocess.DEVNULL)
        if p.returncode == 0:
            rev = p.stdout.strip()
    return f"{rev} sources:{digest[:16]}"


def start_jvm(classpath, args, jvm_opts, source="build"):
    """Start one workload in a fresh JVM with its own store directory."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    work = os.path.join(BUILD, "runs", tag)
    out = os.path.join(BUILD, "results", tag)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ)
    env["SPARK_MASTER"] = f"local[{os.cpu_count()}]"
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    cmd = ["java", f"-Xmx{DRIVER_HEAP}", "-XX:TieredStopAtLevel=1", "-XX:-UsePerfData",
           *jvm_opts, f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}", "-Dspark.ui.enabled=false",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", out, "--source", source]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL if source == "build" else None,
                            text=True, stdin=subprocess.DEVNULL, start_new_session=True)
    return proc, work, out


def run_jvm(classpath, args, spec, source):
    """Run one workload in a fresh JVM; return (table lines, result dict)."""
    opts = [f"-XX:SharedArchiveFile={ARCHIVE}"] if os.path.exists(ARCHIVE) else []
    proc, work, out = start_jvm(classpath, args, opts, source)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 4)
    shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited with code {proc.returncode}", 5)
    raw = json.loads(lines[-1])
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(raw["metrics"]) != set(units):
        fail(f"metrics differ from BENCHMARK.json {section}: "
             f"{sorted(set(raw['metrics']) ^ set(units))}", 6)
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": {k: {"value": raw["metrics"][k], "unit": units[k]} for k in units}}
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    missing = [p for p in SOURCES + [spec_path] if not os.path.exists(p)]
    if missing:
        fail("not a checkout of the program; missing " + ", ".join(
            os.path.relpath(p, ROOT) for p in missing))
    if not shutil.which("java") or not shutil.which("sbt"):
        fail("java and sbt must be on PATH")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    digest = source_digest()
    classpath = build(digest)
    source = revision(digest)

    if args.workload != "all":
        table, result = run_jvm(classpath, args, spec, source)
        print("\n".join(table))
        print(json.dumps(result))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        table, result = run_jvm(classpath, argparse.Namespace(**{**vars(args), "workload": w}),
                                spec, source)
        print("\n".join(table), flush=True)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
