#!/usr/bin/env python3
"""The repository benchmark's driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 12 --trace 0

builds the `pas` binary and the benchmark program (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, checks the
printed metrics against BENCHMARK.json and prints the result as the last
line of standard output. `--out FILE` also appends the result, with a
machine record, to a JSON-lines result set.

    python3 perfbench/run.py record --out A.jsonl --workloads paper-mc,serve-mix --seeds 1-10
    python3 perfbench/run.py compare A.jsonl B.jsonl

`record` runs every workload on every seed into one result set; `compare`
prints, per workload and metric, each set's median and quartiles, the
share of same-seed pairs the second set wins, and a verdict.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-mc", "paper-eval", "large-graph", "serve-mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds `pas` and the benchmark; returns their paths or exits."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "pas-cli", "--bin", "pas"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            log("perfbench: %s is missing; run from a full checkout" % cmd[cmd.index("--manifest-path") + 1])
            sys.exit(2)
        try:
            res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build failed: %s" % e)
            sys.exit(2)
        if res.returncode != 0:
            log("perfbench: build failed: %s" % " ".join(cmd))
            sys.exit(2)
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "pas"), os.path.join(rel, "perfbench")


def machine_record():
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=20).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = cmd_out(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": cmd_out(["rustc", "-V"]),
        "profile": "release",
        "git_rev": rev,
        "loadavg": list(os.getloadavg()),
        "os": platform.platform(),
    }


def cpu_ticks():
    """The machine-wide `cpu` line of /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of the CPUs' busy time the hypervisor took (steal) between two
    /proc/stat samples: host contention that slows every timing."""
    if not before or not after or len(before) < 8:
        return None
    d = [y - x for x, y in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return round(d[7] / busy, 4) if busy else 0.0


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for the mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(workload, seed, seconds, trace, out=None, built=None):
    """Runs one workload; returns (exit code, result dict or None)."""
    pas, bench = built or build()
    machine = machine_record()
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--pas", pas,
           "--trace-dir", os.path.join(HERE, "results", "traces")]
    ticks = cpu_ticks()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s timed out" % workload)
        return 1, None
    machine["steal_share"] = steal_share(ticks, cpu_ticks())
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with %s" % (workload, proc.returncode))
        return 1, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: the last line is not a result: %r" % lines[-1][:200])
        return 1, None
    declared = declared_metrics(trace)
    if declared is not None:
        got = [(k, v.get("unit")) for k, v in result["metrics"].items()]
        if sorted(got) != sorted(declared):
            log("perfbench: printed metrics differ from BENCHMARK.json")
            return 1, None
    for line in lines[:-1]:
        print(line)
    print("machine: " + json.dumps(machine))
    if out:
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": bool(trace), "machine": machine, "result": result}
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0, result


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record(argv):
    ap = argparse.ArgumentParser(prog="run.py record")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args(argv)
    seconds = a.seconds or json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["run_seconds"]
    built = build()
    code = 0
    for workload in a.workloads.split(","):
        for seed in parse_seeds(a.seeds):
            rc, _ = run_once(workload, seed, seconds, a.trace, a.out, built)
            code = code or rc
    return code


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def compare(argv):
    """Per (workload, metric): medians, quartiles, pairs won, verdict.

    The verdict follows the sandbox rule for claiming a gain: `improved`
    when the second set wins at least nine tenths of the same-seed pairs
    (ties count for neither) and the medians differ by more than the
    first set's own quartile distance; `no worse` when its median is not
    worse than the first's by more than the metric's bound and both sets'
    spreads are within the bound; `worse` when the median is worse by
    more than the bound and every run of the second set reads worse than
    every run of the first; `unresolved` otherwise.
    """
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("a")
    ap.add_argument("b")
    a = ap.parse_args(argv)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    A, B = load_set(a.a), load_set(a.b)
    print("%-12s %-40s %28s %28s %6s  %s" % ("workload", "metric", "A median [q1, q3]",
                                           "B median [q1, q3]", "B wins", "verdict"))
    for key in sorted(set(A) & set(B)):
        workload, trace = key
        ra = {r["seed"]: r for r in A[key]}
        rb = {r["seed"]: r for r in B[key]}
        names = [n for n in ra[next(iter(ra))]["result"]["metrics"]]
        for name in names:
            m = meta.get(name, {"better": "lower"})
            higher = m["better"] == "higher"
            bound = m.get("bound")
            va = [r["result"]["metrics"][name]["value"] for r in ra.values()]
            vb = [r["result"]["metrics"][name]["value"] for r in rb.values()]
            qa, qb = quartiles(va), quartiles(vb)
            wins = total = 0
            for seed in set(ra) & set(rb):
                x = ra[seed]["result"]["metrics"][name]["value"]
                y = rb[seed]["result"]["metrics"][name]["value"]
                if x != y:
                    total += 1
                    wins += (y > x) == higher
            share = wins / total if total else 0.0
            verdict = judge(qa, qb, va, vb, share, total, higher, bound)
            print("%-12s %-40s %28s %28s %5.0f%%  %s" % (
                workload + ("*" if trace else ""), name, fmt(qa), fmt(qb), 100 * share, verdict))
    return 0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def judge(qa, qb, va, vb, share, pairs, higher, bound):
    med_a, med_b = qa[1], qb[1]
    gain = (med_b - med_a) if higher else (med_a - med_b)
    if pairs and share >= 0.9 and gain > (qa[2] - qa[0]):
        return "improved"
    if bound is None or med_a == 0:
        return "unresolved"
    spread_a = (qa[2] - qa[0]) / abs(med_a)
    spread_b = (qb[2] - qb[0]) / abs(med_a)
    worse_by = -gain / abs(med_a)
    if worse_by <= bound and spread_a <= bound and spread_b <= bound:
        return "no worse"
    every_worse = (max(vb) < min(va)) if higher else (min(vb) > max(va))
    if worse_by > bound and every_worse:
        return "worse"
    return "unresolved"


def main(argv):
    if argv and argv[0] == "record":
        return record(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append the result to this JSON-lines result set")
    a = ap.parse_args(argv)
    if not 1 <= a.seconds <= 600:
        log("perfbench: --seconds must be in 1..600")
        return 2
    code, _ = run_once(a.workload, a.seed, a.seconds, a.trace, a.out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
