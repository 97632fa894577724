#!/usr/bin/env python3
"""Build the DARM benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

The first form builds perfbench/main.exe with dune and runs one workload;
the last line of its output is the JSON result.  `--workload all` runs
every workload with tracing on (which includes the untraced phase), adds
the paper-eval cross-check against the harness's Experiment geomeans, and
exits non-zero if any workload reports a failure.

Exits with status 2, printing no result, when the checkout does not hold
the DARM sources or the build fails.
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["paper-eval", "big-cfg", "fuzz-smoke", "shrink-runaway"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from the root of a DARM checkout" % (need, ROOT))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run(args, capture=False):
    try:
        r = subprocess.run(
            [EXE] + args,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (" ".join(args), RUN_TIMEOUT_S))
    return r


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    build()
    if option(args, "--workload", None) != "all":
        r = run(args)
        sys.exit(r.returncode)
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", "8")
    ok = True
    for w in WORKLOADS:
        extra = ["--cross-check"] if w == "paper-eval" else []
        r = run(["--workload", w, "--seed", seed, "--seconds", seconds,
                 "--trace", "1"] + extra, capture=True)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if r.returncode == 0 and lines else None
        good = result is not None and result["correct"]
        print("== %s: %s\n" % (w, "correct" if good else "FAILED"), flush=True)
        ok = ok and good
    print("perfbench: %s" % ("every workload correct" if ok else "FAILURES"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
