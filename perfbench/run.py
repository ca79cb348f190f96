#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload repro-quick|sim-batch|trace-roundtrip|all \
        [--seed N] [--seconds S] [--trace 0|1]

The harness (a Go program in this directory, its own module that builds
the repository's packages from ../) is compiled into .bench_build/ with
every Go cache and temporary directory kept there too, then run with the
given arguments. Its last line of standard output is the JSON result;
the per-metric table goes to standard error. With --workload all each
workload runs in its own process, one after another, and the last line
merges their results with metric names prefixed by "<workload>/".
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["repro-quick", "sim-batch", "trace-roundtrip"]


def build():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOPROXY="off",
               GOFLAGS="-buildvcs=false", GOTELEMETRY="off", CGO_ENABLED="0")
    binary = os.path.join(BUILD, "perfbench-bin")
    done = subprocess.run(["go", "build", "-o", binary, "."],
                          cwd=os.path.join(ROOT, "perfbench"), env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run(binary, workload, args):
    cmd = [binary, "-workload", workload,
           "-expected", os.path.join(ROOT, "perfbench", "expected"),
           "-out", os.path.join(BUILD, "perfbench")] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.exit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv):
    args, workload, i = [], None, 0
    while i < len(argv):
        flag = argv[i].lstrip("-")
        if "=" in flag:
            flag, value = flag.split("=", 1)
            i += 1
        elif i + 1 < len(argv):
            value = argv[i + 1]
            i += 2
        else:
            sys.exit("perfbench: flag %s needs a value" % argv[i])
        if flag == "workload":
            workload = value
        else:
            args += ["-" + flag, value]
    if workload not in WORKLOADS + ["all"]:
        sys.exit("perfbench: --workload must be one of %s or all" % ", ".join(WORKLOADS))
    binary = build()
    if workload != "all":
        run(binary, workload, args)
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = run(binary, name, args)
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][name + "/" + key] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main(sys.argv[1:])
