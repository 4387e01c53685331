#!/usr/bin/env python3
"""Build and run the server benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build, runs it on a fresh
journal directory under .bench_out (removed on every exit path), and
passes its output through: the last line of standard output is the result
object. The full result and the kept spans are left in .bench_out.
Exits non-zero, without a result, when the checkout cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    die("no dune on PATH and no opam to find one")


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s missing: run from a checkout of the repository" % needed)
    cmd = dune_command() + ["build", "--root", ROOT, "--build-dir", BUILD_DIR,
                            "--profile", "release", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        die("build failed")


def source_digest():
    """A digest of the sources under test: the checkout is not always a git
    repository, so this identifies the code when no commit hash does."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit_hash():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.stdout.decode().strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fs_type(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path], timeout=10,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.stdout.decode().strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def load_average():
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def main():
    # a terminated run still unwinds through the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        die("--seed must be >= 0 and --seconds within 1..600")

    load_1m = load_average()
    build()
    out = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    run_root = os.path.join(out, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_root, ignore_errors=True)
    os.makedirs(run_root)
    provenance = {
        "nproc": os.cpu_count(),
        "load_1m_at_start": load_1m,
        "root_fs": fs_type(run_root),
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "trace": args.trace,
    }
    # write back what the build and earlier runs left dirty, so that the
    # fsyncs of this run's set-up do not wait on it
    os.sync()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", run_root, "--out", out, "--provenance", json.dumps(provenance)]
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die("run exceeded %d s" % RUN_TIMEOUT_S, 3)
        sys.stdout.write(stdout.decode(errors="replace"))
        sys.stdout.flush()
        return proc.returncode
    finally:
        if proc is not None and proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(run_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
