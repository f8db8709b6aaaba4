#!/usr/bin/env python3
"""Run one BLEND benchmark workload from the root of a checkout.

    python3 blendbench/run.py --workload blend|bno --seed N --seconds S --trace 0|1

The first run in a checkout builds the program and the benchmark from source
with sbt and keeps the result under .bench_build/; later runs rebuild only
when a source file changed. Each run starts a fresh JVM, forwards its report
to standard output and ends with the run's result object on the last line.
A copy of each report is kept under .bench_build/blendbench/runs/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "blendbench"
OUT = ROOT / ".bench_build" / "blendbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 480

# Inputs of the build: the program's sources and build files, and the
# benchmark's own.
SOURCES = [
    ROOT / "build.sbt", ROOT / "project", ROOT / "src" / "main", ROOT / "jobs",
    BENCH / "build.sbt", BENCH / "project", BENCH / "src",
]


def die(msg):
    print(f"blendbench: {msg}", file=sys.stderr)
    sys.exit(2)


def fingerprint():
    h = hashlib.sha256()
    for top in SOURCES:
        files = [top] if top.is_file() else sorted(
            p for p in top.rglob("*") if p.is_file() and "target" not in p.relative_to(top).parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout):
    """Runs a command in its own process group and returns its exit code and
    standard output. The group is killed, and waited for, on a timeout or
    when this script is asked to stop."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                         stdout=subprocess.PIPE, stderr=None, text=True)

    def stop(signum, _frame):
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(128 + signum)

    handlers = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(f"{cmd[0]} exceeded {timeout} s")
    finally:
        for s, h in handlers.items():
            signal.signal(s, h)
    return p.returncode, out


def jvm_env():
    env = dict(os.environ)
    # The session's settings come from the program's own job entry point
    # alone, so the variables it reads for overrides are cleared.
    env.pop("SPARK_MASTER", None)
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    # Spark's scratch files stay inside the checkout.
    env["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    return env


def java_cmd(classpath):
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The heap is the JVM's default, as for a job started without options.
    # JVM warnings go to stderr: standard output carries the report.
    return ["java", f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData",
            "-Xlog:disable", "-Xlog:all=warning:stderr", "-cp", classpath, "blendbench.Main"]


def build():
    """Compiles with sbt and returns the run-time classpath."""
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = OUT / "stamp"
    with open(OUT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fp = fingerprint()
        if stamp.exists() and stamp.read_text() == fp and (OUT / "classpath").exists():
            return (OUT / "classpath").read_text()
        stamp.unlink(missing_ok=True)
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.repository.config="
                       + str(Path.home() / ".sbt" / "repositories") + " -Dsbt.offline=true -Xmx2g")
        # sbt keeps its launcher, global settings and lock files inside the
        # checkout too; it reads dependencies from the offline coursier cache.
        sbt_home = OUT / "sbt"
        code, out = run_child(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             f"-Dsbt.global.base={sbt_home / 'global'}", f"-Dsbt.boot.directory={sbt_home / 'boot'}",
             f"-Dsbt.ivy.home={sbt_home / 'ivy2'}", f"-Djna.tmpdir={sbt_home / 'jna'}",
             "-J-XX:-UsePerfData", "export Runtime/fullClasspath"], BENCH, env, BUILD_TIMEOUT_S)
        lines = [l for l in (out or "").splitlines() if l.strip()]
        if code != 0 or not lines:
            sys.stderr.write(out or "")
            die("build failed")
        classpath = lines[-1]
        (OUT / "classpath").write_text(classpath)
        stamp.write_text(fp)
        return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["blend", "bno"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        die(f"{ROOT} holds no program to build (build.sbt and src/main/scala/repro are missing)")
    classpath = build()

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    code, out = run_child(java_cmd(classpath) + args, ROOT, jvm_env(), RUN_TIMEOUT_S)
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{a.workload}-seed{a.seed}-trace{a.trace}.txt").write_text(out or "")
    lines = (out or "").rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1], parse_constant=lambda c: die(f"metric value {c}"))
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if code != 0 or not valid:
        sys.stderr.write(out or "")
        die(f"run failed (exit code {code})")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
