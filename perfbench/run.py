#!/usr/bin/env python3
"""Build the benchmark harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload restart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The harness is built with dune in release mode into the checkout's own
_build directory (dune's shared cache is disabled, so nothing is written
outside the checkout).  SLOWCC_* variables are removed from the
environment so a run measures the default configuration.  The last line
of standard output is the harness's JSON result; build output goes to
standard error.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
EVENTS_DIR = os.path.join("_build", "perfbench-events")
# A measured run ends well inside the 180 s a run may take; the
# self-test runs every workload several times and is not limited.
RUN_TIMEOUT_S = 170


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; run from the repository root",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLOWCC_")}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(EVENTS_DIR, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = EVENTS_DIR
    timeout = None if "--self-test" in argv else RUN_TIMEOUT_S
    proc = subprocess.Popen([EXE] + argv, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: harness exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
