#!/usr/bin/env python3
"""Build the SRUMMA library and the perfbench program, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dense_real --seed 1 --seconds 25 --trace 0

The library is configured from the repository's own CMakeLists.txt as a
Release build without tests, benches or examples, installed into
.bench_build/prefix, and the program (perfbench/CMakeLists.txt) is built
against that install.  Build output goes to .bench_build/build.log; the
program's output, whose last line is the JSON result, goes to stdout.
Extra arguments after the four standard ones are passed to the program
(see perfbench/README.md).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "lib"
PREFIX = BUILD / "prefix"
BENCH_BUILD = BUILD / "bench"
LOG = BUILD / "build.log"
JOBS = str(min(4, os.cpu_count() or 1))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write(f"$ {' '.join(cmd)}\n")
    log.flush()
    rc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                        stdin=subprocess.DEVNULL).returncode
    if rc != 0:
        log.flush()
        tail = LOG.read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed ({' '.join(cmd[:3])} ...); see {LOG}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SRUMMA source tree at {ROOT} (CMakeLists.txt and src/ "
             "are required)")
    BUILD.mkdir(exist_ok=True)
    with open(LOG, "a") as log:
        if not (LIB_BUILD / "CMakeCache.txt").is_file():
            run_logged(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD),
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DSRUMMA_BUILD_TESTS=OFF",
                        "-DSRUMMA_BUILD_BENCH=OFF",
                        "-DSRUMMA_BUILD_EXAMPLES=OFF",
                        f"-DCMAKE_INSTALL_PREFIX={PREFIX}"], log)
        run_logged(["cmake", "--build", str(LIB_BUILD), "-j", JOBS], log)
        run_logged(["cmake", "--install", str(LIB_BUILD)], log)
        if not (BENCH_BUILD / "CMakeCache.txt").is_file():
            run_logged(["cmake", "-S", str(HERE), "-B", str(BENCH_BUILD),
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DCMAKE_PREFIX_PATH={PREFIX}"], log)
        run_logged(["cmake", "--build", str(BENCH_BUILD), "-j", JOBS], log)
    return BENCH_BUILD / "perfbench"


def provenance():
    """Commit (when the tree is a git checkout) and a digest of the sources."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def main():
    program = build()
    commit, digest = provenance()
    cmd = [str(program), *sys.argv[1:], "--commit", commit,
           "--src-digest", digest, "--trace-dir", str(BUILD / "traces")]
    return subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
