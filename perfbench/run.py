#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all.

    python3 perfbench/run.py --workload collect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The Go build cache, the build's
temporary files, the binary, the run's scratch stores and the traced
runs' spans stay under .bench_build/ in the checkout. For one
workload the last line of standard output is its JSON result; for
"all" each workload prints one line, "<workload> <JSON result>", and
the exit code is 0 only if every workload ran and passed its checks.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ["collect", "analyze", "serve"]


def build(env):
    done = subprocess.run(
        ["go", "build", "-o", BIN, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=env,
        stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def run(args, env, capture):
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    try:
        return subprocess.run([BIN, "--workdir", work] + args, env=env,
                              stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    if not build(env):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    args = sys.argv[1:]
    if "--workload" not in args or args[args.index("--workload") + 1:][:1] != ["all"]:
        return run(args, env, capture=False).returncode
    at = args.index("--workload") + 1
    ok = True
    for w in WORKLOADS:
        done = run(args[:at] + [w] + args[at + 1:], env, capture=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write("perfbench: %s exited with code %d\n" % (w, done.returncode))
            ok = False
            continue
        print(w, lines[-1], flush=True)
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
