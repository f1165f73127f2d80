#!/usr/bin/env python3
"""Build the ATPG benchmark from source, then run one workload.

    python3 perfbench/run.py --workload tables|symbolic|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The build uses dune with its
shared cache off, so everything it writes stays under _build/; the
benchmark itself writes only under .bench_out/.  The last line of
standard output is the JSON result.  Exits non-zero when the build
fails (printing no result) or a correctness gate fails (the result
then says "correct": false).
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # One CPU for the benchmark and the daemon it starts: in serve, each
    # request then hands off between caller and daemon by a local context
    # switch, not a cross-CPU wake-up, whose cost on a small VM swings
    # run to run by up to 2x.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
