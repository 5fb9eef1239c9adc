#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig6_cold --seed 1 --seconds 20 --trace 0

builds the Go benchmark in perfbench/ against the source tree beside it
(build outputs stay in .bench_build/) and runs one workload; the last line
of standard output is the JSON result.

    python3 perfbench/run.py steady --workload serve_mixed --seeds 1,2,3,4,5

runs a workload once per seed, untraced and traced, and prints each
metric's median and quartiles. It flags every end-to-end metric whose
spread (interquartile range over median) exceeds its bound in
BENCHMARK.json, or a third of it, and any seed whose traced replay did not
reproduce the untraced outputs byte for byte; it exits 1 if any output
was wrong, any replay differed or any spread exceeded its bound.

    python3 perfbench/run.py all --seed 1

runs every workload untraced and traced, printing every metric with its
unit and the output checks; it exits 1 if any check failed.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    go = shutil.which("go") or "/usr/local/go/bin/go"
    env = dict(os.environ)
    env.update({
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": "",
    })
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + proc.stdout)
        sys.exit(1)


def run_once(workload, seed, seconds, trace, echo=False):
    proc = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %s trace %s exited %d" % (workload, seed, trace, proc.returncode))
    digest = next((l.split()[2] for l in lines if l.startswith("# digest ")), "")
    return json.loads(lines[-1]), digest


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(args):
    opts = dict(zip(args[::2], args[1::2]))
    workload = opts["--workload"]
    seeds = [int(s) for s in opts.get("--seeds", "1,2,3,4,5").split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = int(opts.get("--seconds", spec["run_seconds"]))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    plain, traced, bad = {}, {}, []
    for seed in seeds:
        res, d0 = run_once(workload, seed, seconds, 0)
        tres, d1 = run_once(workload, seed, seconds, 1)
        if not (res["correct"] and tres["correct"]):
            bad.append("seed %d: correct=%s traced correct=%s" % (seed, res["correct"], tres["correct"]))
        if d0 != d1:
            bad.append("seed %d: traced digest %s != untraced %s" % (seed, d1, d0))
        for name, m in res["metrics"].items():
            plain.setdefault(name, []).append(m["value"])
        for name, m in tres["metrics"].items():
            traced.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
              flush=True)
    print("%-22s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, values in plain.items():
        med, q1, q3, sp = spread(values)
        flag = ""
        if sp > bounds[name]:
            flag = "  OVER BOUND"
            bad.append("%s spread %.4f over its bound %.3f" % (name, sp, bounds[name]))
        elif sp > bounds[name] / 3:
            flag = "  over a third of bound"
        print("%-22s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (name, med, q1, q3, sp, bounds[name], flag))
    for name, values in sorted(traced.items()):
        med, q1, q3, sp = spread(values)
        print("  %-32s %12.6g  [%.6g, %.6g]" % (name, med, q1, q3))
    tw, uw = statistics.median(traced["trace.wall_s"]), statistics.median(plain["wall_s"])
    print("tracing overhead: traced wall %.3fs / untraced wall %.3fs = %.3f" % (tw, uw, tw / uw))
    for b in bad:
        print("FAIL " + b)
    return 1 if bad else 0


def run_all(args):
    opts = dict(zip(args[::2], args[1::2]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            res, _ = run_once(w["name"], opts.get("--seed", "1"), spec["run_seconds"], trace, echo=True)
            ok = ok and res["correct"]
    return 0 if ok else 1


def main():
    build()
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        sys.exit(steady(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "all":
        sys.exit(run_all(sys.argv[2:]))
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
