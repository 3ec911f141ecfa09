#!/usr/bin/env python3
"""The XRPC benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  Builds perfbench.exe and the
xrpc_server binary with dune, runs one workload (see workloads.json) and
prints the workload's report followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics, each with its unit.

--smoke runs every workload briefly with its oracle on, twice per seed,
and checks that the count metrics repeat exactly.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SERVER = os.path.join(ROOT, "_build", "default", "bin", "xrpc_server.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load(path):
    with open(path) as f:
        return json.load(f)


def build():
    for needed in ("dune-project", "lib", os.path.join("bin", "xrpc_server.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s not found: run from the root of an XRPC source checkout" % needed)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ROOT, "./perfbench/perfbench.exe", "./bin/xrpc_server.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0:
        die("build failed (dune exit code %d)" % proc.returncode)


def run_once(workload, seed, seconds, trace, params):
    """Runs perfbench.exe; returns (report lines, parsed RESULT object)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--server", SERVER]
    for key, value in params.items():
        cmd += ["--param", "%s=%s" % (key, value)]
    # its own process group, so the server it spawns goes down with it
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.stdout.write(out)
        die("%s exited with code %d and no result" % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1][len("RESULT "):])


def result_line(raw, specs):
    """The contract's result object: the listed metrics with their units."""
    metrics = {}
    for spec in specs:
        value = raw["metrics"].get(spec["name"])
        if value is None or not math.isfinite(value):
            die("metric %s was not measured" % spec["name"])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": raw["failed"] == 0 and raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def smoke(bench, workloads):
    """Each workload for one second, traced and untraced, twice with one
    seed: every answer checked, and the seed-determined counts equal."""
    counts = workloads["count_metrics"]["end_to_end"] + workloads["count_metrics"]["per_layer"]
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        params = workloads["workloads"][name]["params"]
        runs = []
        for trace in (0, 1, 1):
            lines, raw = run_once(name, 7, 1, trace, params)
            print("\n".join(lines))
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            res = result_line(raw, specs)
            if not res["correct"]:
                print("SMOKE FAIL: %s --trace %d: %d of %d operations failed"
                      % (name, trace, res["failed"], res["attempted"]))
                ok = False
            runs.append(raw["metrics"])
        for metric in counts:
            values = [m[metric] for m in runs if metric in m]
            if len(set(values)) != 1:
                print("SMOKE FAIL: %s: %s differs between runs of one seed: %s"
                      % (name, metric, values))
                ok = False
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        workloads = load(os.path.join(HERE, "workloads.json"))
    except (OSError, ValueError) as e:
        die("cannot read the benchmark definition: %s" % e)
    build()
    if args.smoke:
        sys.exit(smoke(bench, workloads))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("--workload must be one of %s" % ", ".join(names))
    seconds = args.seconds or bench["run_seconds"]
    lines, raw = run_once(args.workload, args.seed, seconds, args.trace,
                          workloads["workloads"][args.workload]["params"])
    print("\n".join(lines))
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps(result_line(raw, specs)))


if __name__ == "__main__":
    main()
