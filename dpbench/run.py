#!/usr/bin/env python3
"""Build and run the NFP dataplane benchmark.

Run from the repository root:

    python3 dpbench/run.py --workload fwd5_64b --seed 1 --seconds 20 --trace 0

The script builds dpbench (a Go module of its own that uses the
dataplane packages of the repository it sits in) into .bench_build/ at
the repository root, with the Go build and module caches kept there
too, then runs it with the given arguments, beside one idler per CPU
(see IDLER), and exits with its status. Nothing is fetched: the module has no dependency outside the
repository.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dpbench")

BUILD_TIMEOUT = 600
RUN_TIMEOUT = 170

# An idler keeps one CPU busy at SCHED_IDLE priority, so the kernel runs
# it only when nothing else is runnable and preempts it as soon as a
# benchmark thread wakes. Without idlers a virtual CPU with no work
# halts and hands its physical CPU back to the hypervisor; waking it
# then waits on the host's scheduler, which other tenants make slow for
# minutes at a time, and light-load latency and set-up time follow the
# host instead of the program. Idlers stand in for booting the host
# with idle=poll. They exit when their parent does.
IDLER = """
import os
parent = os.getppid()
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    pass
"""


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOPATH=os.path.join(BUILD, "go-path"),
        GOTMPDIR=os.path.join(BUILD, "go-tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"dpbench: build failed: {err}", file=sys.stderr)
        return 1
    return done.returncode


def run():
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"dpbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    if build() != 0:
        print("dpbench: build failed", file=sys.stderr)
        return 1
    idlers = [subprocess.Popen([sys.executable, "-c", IDLER])
              for _ in os.sched_getaffinity(0)]
    try:
        return run()
    finally:
        for p in idlers:
            p.kill()
        for p in idlers:
            p.wait()


if __name__ == "__main__":
    sys.exit(main())
