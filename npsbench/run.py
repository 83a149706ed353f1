#!/usr/bin/env python3
"""Build npsbench from this checkout's sources, run it, compare runs.

Run one workload (the last line of standard output is the JSON result):

    python3 npsbench/run.py --workload W --seed N [--seconds S] [--trace 0|1]
                            [--json FILE]

`--workload all` runs every workload, each in a fresh process. `--json FILE`
appends one record per run, {"workload", "seed", "seconds", "trace",
"result"}, for `--compare`:

    python3 npsbench/run.py --compare BASE.jsonl... -- CHANGE.jsonl...

The build goes to .bench_build/ at the root of the checkout (CMake, the
package in npsbench/CMakeLists.txt). See npsbench/README.md.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["fleet-100k", "consolidate-10k", "serve-10k", "dist-paper"]
# One run is measured for --seconds plus its set-ups and checks; a run
# that has not ended by then has hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("npsbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build npsbench (and npsim, npsnode)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "npsbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "npsbench")


def check_result(line, names):
    """The result line has exactly the contract's keys and metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    if list(result["metrics"]) != names:
        fail("metrics %s differ from BENCHMARK.json %s"
             % (list(result["metrics"]), names))
    return result


def run_one(exe, spec, workload, args):
    names = [m["name"]
             for m in spec["per_layer" if args.trace else "end_to_end"]]
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(BUILD, "trace")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail("%s exited with code %d" % (workload, proc.returncode))
    result = check_result(lines[-1], names)
    sys.stdout.write(out)
    sys.stdout.flush()
    if args.json:
        with open(args.json, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": args.seed,
                                "seconds": args.seconds,
                                "trace": args.trace,
                                "result": result}) + "\n")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_records(paths):
    """Scored results per workload, in file and line order."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec["trace"]:
                    continue
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def compare(base_paths, change_paths):
    """The A/B rule of the choosing-metrics guide, one row per
    (workload, metric). Run i of BASE pairs with run i of CHANGE; a
    gain needs at least 9/10 of the pairs won (ties count for neither
    side) and a median difference larger than BASE's quartile spread;
    a metric whose BASE spread exceeds its bound is unresolved unless
    every CHANGE run beats every BASE run."""
    spec = load_spec()
    base, change = read_records(base_paths), read_records(change_paths)
    header = ("workload", "metric", "base median [q1, q3]",
              "change median [q1, q3]", "delta", "wins", "verdict")
    rows = []
    for workload in [w for w in WORKLOADS if w in base or w in change]:
        b_runs, c_runs = base.get(workload, []), change.get(workload, [])
        if not b_runs or not c_runs:
            rows.append((workload, "-", "%d runs" % len(b_runs),
                         "%d runs" % len(c_runs), "", "", "missing"))
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            pairs = list(zip(b, c))
            wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
            losses = sum(1 for x, y in pairs if sign * (x - y) < 0)
            delta = (cmed - bmed) / bmed if bmed else 0.0
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            worse = sign * delta > bound
            all_better = all(sign * (bv - cv) > 0 for bv in b for cv in c)
            if any(not r["correct"] or r["failed"] for r in c_runs):
                verdict = "incorrect"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1:
                verdict = "gain"
            elif worse:
                verdict = "regression"
            elif losses >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1:
                verdict = "worse, within bound"
            else:
                verdict = "no change"
            rows.append((workload, name,
                         "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
                         "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3),
                         "%+.1f%%" % (100.0 * delta),
                         "%d/%d" % (wins, len(pairs)), verdict))
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return 1 if any(r[-1] in ("regression", "incorrect") for r in rows) \
        else 0


def main():
    if "--compare" in sys.argv:
        rest = sys.argv[sys.argv.index("--compare") + 1:]
        if "--" not in rest:
            fail("usage: run.py --compare BASE... -- CHANGE...")
        split = rest.index("--")
        if split == 0 or split == len(rest) - 1:
            fail("--compare needs files on both sides of --")
        sys.exit(compare(rest[:split], rest[split + 1:]))

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=20080301)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--json", help="append one record per run to FILE")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    exe = build()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_one(exe, spec, workload, args)


if __name__ == "__main__":
    main()
