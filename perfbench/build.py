"""Build file of the benchmark: compiles the CERES program (src/main/scala) and
the benchmark (perfbench/src) with the Scala compiler from Spark's jar
directory into .bench_build/app/perfbench.jar. Rebuilds only when a source
changed; a rebuild also drops the class-data archive that run.py keeps
beside the jar.

    python3 perfbench/build.py        # from the repository root
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def spark_jars():
    """Spark's jar directory: $SPARK_HOME/jars, else the one beside spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise SystemExit("perfbench: set SPARK_HOME or put spark-submit on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise SystemExit(f"perfbench: no Scala compiler in {jars}")
    return jars


def sources(root):
    found = glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"), recursive=True)
    found += glob.glob(os.path.join(root, "perfbench", "src", "*.scala"))
    return sorted(found)


def build(root):
    """Returns the application directory holding perfbench.jar, compiling first
    if a source changed."""
    jars = spark_jars()
    srcs = sources(root)
    digest = hashlib.sha256(jars.encode())
    for path in srcs:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    out = os.path.join(root, BUILD_DIR)
    app = os.path.join(out, "app")
    stamp_file = os.path.join(app, ".stamp")
    if os.path.isfile(stamp_file) and open(stamp_file).read() == stamp:
        return app

    tmp = os.path.join(out, "app.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    cmd = ["java", "-Xss8m", "-Xmx1536m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={os.path.join(out, 'tmp')}",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", os.path.join(tmp, "perfbench.jar")] + srcs
    print(f"perfbench: compiling {len(srcs)} Scala files", file=sys.stderr)
    subprocess.run(cmd, check=True, cwd=root, timeout=800)
    with open(os.path.join(tmp, ".stamp"), "w") as f:
        f.write(stamp)
    shutil.rmtree(app, ignore_errors=True)
    os.rename(tmp, app)
    return app

if __name__ == "__main__":
    print(build(os.getcwd()))
