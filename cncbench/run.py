#!/usr/bin/env python3
"""Build and run the aecnc benchmark from the root of a checkout.

    python3 cncbench/run.py --workload skewed-bmp --seed 1 --seconds 10 --trace 0

Builds the `cnc` binary and the `cncbench` harness from source (into
$CARGO_TARGET_DIR, default `.bench_build`), records a host fingerprint, and
runs one workload. The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; a `# info` line before it
states the input sizes, host and sample counts. `--flip-one-count`
corrupts one result per check to show that the checker fires.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("skewed-bmp", "stream-shard-mps")
# A run must end within 180 s; leave room for the build check before it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"cncbench: {msg}", file=sys.stderr, flush=True)


def build(cmd, env):
    # Cargo's progress goes to stderr; stdout stays reserved for results.
    rc = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    if rc != 0:
        log(f"build failed: {' '.join(cmd)}")
        sys.exit(rc or 1)


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint():
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read(os.path.join(index, "level"))
        kind = read(os.path.join(index, "type"))
        size = read(os.path.join(index, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown",
    }


def remove_stale_work_dirs(scratch):
    """Delete work directories left by runs that were killed (their name
    ends in the pid of a run.py that no longer exists)."""
    for path in glob.glob(os.path.join(scratch, "*-*-*")):
        try:
            os.kill(int(path.rsplit("-", 1)[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--flip-one-count", action="store_true")
    args = p.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        log("run from the root of an aecnc checkout (no Cargo.toml/crates here)")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "-p", "aecnc", "--bin", "cnc"], env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    scratch = os.path.join(target, "cncbench")
    remove_stale_work_dirs(scratch)
    cmd = [
        os.path.join(target, "release", "cncbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cnc", os.path.join(target, "release", "cnc"),
        "--work-dir", os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}"),
        "--trace-dir", os.path.join(scratch, "traces"),
        "--host-json", json.dumps(fingerprint()),
    ]
    if args.flip_one_count:
        cmd.append("--flip-one-count")
    # Own process group, so a timeout takes every daemon and worker with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        return proc.returncode
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("harness printed no result line")
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
