#!/usr/bin/env python3
"""Build and run the metric-DBSCAN benchmark from the root of a checkout.

    python3 perfbench/run.py --workload euclid --seed 1 --seconds 10 --trace 0

The first run in a checkout compiles the repository's main sources together
with the benchmark (sbt, offline) into .bench_build/perfbench; later runs
reuse that build while the sources are unchanged. The benchmark then runs in
one JVM with a fixed heap and garbage collector. The last line of stdout is
the JSON result; progress and errors go to stderr.
"""
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
MAIN_SOURCES = os.path.join(ROOT, "src", "main", "scala")

# A fixed, pre-touched heap with a fixed young generation, so heap sizing and
# page faults do not differ between runs, and the stop-the-world parallel
# collector (no concurrent GC threads competing with the single-threaded
# algorithms). 2 GiB holds every workload with room to spare.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-Xmn768m", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
            "-XX:+AlwaysPreTouch"]
# The module opens Spark's own launcher passes on JDK 17.
JVM_OPTS += ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_files():
    files = []
    for base in (MAIN_SOURCES, os.path.join(HERE, "src"), os.path.join(HERE, "project")):
        for d, dirs, names in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return files + [os.path.join(HERE, "build.sbt")]


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        sys.exit(log("no Spark distribution found (set SPARK_HOME)") or 2)
    return home


def build():
    """Return the runtime classpath, compiling first if the sources changed."""
    cp_file, stamp_file = os.path.join(BUILD, "classpath.txt"), os.path.join(BUILD, "stamp.txt")
    want = stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == want:
                with open(cp_file) as cf:
                    return cf.read()
    os.makedirs(BUILD, exist_ok=True)
    log("building (sbt compile) ...")
    env = dict(os.environ, SPARK_HOME=spark_home())
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            timeout=BUILD_TIMEOUT_S)
    with open(build_log) as fh:
        lines = fh.read().splitlines()
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        sys.exit(log("build failed (log: %s)" % build_log) or 1)
    cp = [l for l in lines if ".jar" in l and not l.startswith("[")][-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return cp


def main():
    if not os.path.isdir(MAIN_SOURCES):
        log("no program sources at %s: run from the root of a full checkout" % os.path.relpath(MAIN_SOURCES))
        return 2
    cp = build()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    os.makedirs(BUILD, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    cmd = [java] + JVM_OPTS + ["-Djava.io.tmpdir=" + tmp, "-cp", cp, "perfbench.Main"] + sys.argv[1:] + [
        "--layers-dir", os.path.join(BUILD, "layers")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
