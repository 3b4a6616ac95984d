#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload oracle|closed-form|daemon \\
        --seed N --seconds S --trace 0|1

Builds perfbench.exe and the defender CLI with dune (build output goes
to stderr), runs one workload and passes its output through: the last
line of standard output is the result object.  Exits 2 without a result
when the checkout holds no buildable source tree.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RUNDIR = ".perfbench"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait until
    it is empty (daemons and pool workers are not our children)."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main():
    for needed in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a source checkout" % needed)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # Keep every file the build and the run write inside the checkout:
    # no shared dune cache, and compiler temporaries under RUNDIR.
    tmp = os.path.join(os.getcwd(), RUNDIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        sys.exit(build_and_run(dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)))
    finally:
        shutil.rmtree(RUNDIR, ignore_errors=True)


def build_and_run(env):
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".",
             "./perfbench/perfbench.exe", "./bin/defender_cli.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    cli = os.path.join("_build", "default", "bin", "defender_cli.exe")
    proc = subprocess.Popen(
        [exe] + sys.argv[1:] + ["--cli", cli, "--rundir", RUNDIR],
        env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        stop_group(proc.pid)
        proc.wait()


if __name__ == "__main__":
    main()
