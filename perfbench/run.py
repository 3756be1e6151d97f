#!/usr/bin/env python3
"""CERES benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload imdb|longtail --seed N --seconds S --trace 0|1

Builds the program and the benchmark from source (perfbench/build.py), then
runs one JVM (perfbench.BenchMain) that sets up Spark, generates the
workload from the seed, runs it and checks its output. The last line of
standard output is the JSON result; Spark's logs go to standard error.
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["imdb", "longtail"]
# The JVM's own limit, below the 180 s a run may take once the build is done;
# the first run after a build also writes the class-data archive.
JVM_LIMIT_S = 170
JVM_LIMIT_ARCHIVING_S = 600

# What spark-submit adds on Java 17 for Spark's reflective access.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "main", "scala", "repro", "core", "Ceres.scala")):
        print("perfbench: run from the root of a CERES checkout (src/main/scala is missing)", file=sys.stderr)
        return 2
    app = build.build(root)

    out = os.path.join(root, build.BUILD_DIR)
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    # A fixed heap: letting G1 grow it from a small start costs seconds of
    # pauses in every run and makes set-up time depend on heap resizing.
    heap = os.environ.get("SPARK_DRIVER_MEM", "3g")
    # Loading and verifying Spark's classes takes about 7 s of every set-up.
    # The first run after a build records them in a class-data archive at
    # exit; later runs map it. JVM log lines go to standard error.
    archive = os.path.join(app, "classes.jsa")
    archived = os.path.isfile(archive)
    cds = f"-XX:SharedArchiveFile={archive}" if archived else f"-XX:ArchiveClassesAtExit={archive}"
    limit = JVM_LIMIT_S if archived else JVM_LIMIT_ARCHIVING_S
    cmd = ["java", f"-Xms{heap}", f"-Xmx{heap}", "-XX:-UsePerfData", cds,
           "-Xlog:disable", "-Xlog:all=warning:stderr",
           f"-Djava.io.tmpdir={os.path.join(out, 'tmp')}",
           f"-Dlog4j.configurationFile={os.path.join(root, 'perfbench', 'log4j2.properties')}",
           *JAVA_MODULE_OPTIONS,
           "-cp", os.pathsep.join([os.path.join(app, "perfbench.jar"), os.path.join(build.spark_jars(), "*")]),
           "perfbench.BenchMain",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        print(f"perfbench: stopped the benchmark JVM after {limit} s", file=sys.stderr)
    # The result is complete once printed, even if the JVM then failed to shut down.
    lines = stdout.splitlines()
    results = [line for line in lines if line.startswith('{"correct"')]
    for line in lines:
        if not line.startswith('{"correct"'):
            print(line)
    if len(results) != 1:
        print(f"perfbench: no result (JVM exit code {proc.returncode})", file=sys.stderr)
        return 3
    print(results[0], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
