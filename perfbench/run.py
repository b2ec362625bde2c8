#!/usr/bin/env python3
"""Build and run the MIX benchmark, or compare two sets of its results.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

The Go program is built once per source tree into .bench_build/ (its build
cache too), then run. Its last stdout line is the JSON summary; the full
result and, for --trace 1, the span file land in .bench_build/results/.

Run every workload once, untraced, with the run length BENCHMARK.json fixes:

    python3 perfbench/run.py all --seed 1

Compare the results of two commits, one row per workload and end-to-end
metric, with the per-layer deltas the spec maps to each row:

    python3 perfbench/run.py compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Show each end-to-end metric's run-to-run spread in one results directory:

    python3 perfbench/run.py spread .bench_build/results
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def source_digest():
    """Digest of every file the build reads: Go sources and module files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum") or name.endswith(".json") and dirpath == HERE:
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_name(digest):
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip() + "+tree:" + digest
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree:" + digest


def build(digest):
    binary = os.path.join(BUILD, "perfbench-" + digest)
    if os.path.exists(binary):
        return binary
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
    )
    tmp = binary + ".tmp"
    res = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env)
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    os.replace(tmp, binary)
    return binary


def run(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    digest = source_digest()
    binary = build(digest)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-out", os.path.join(BUILD, "results"), "-commit", commit_name(digest)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        sys.exit("perfbench: run failed with code %d" % res.returncode)
    lines = res.stdout.rstrip("\n").split("\n")
    summary = json.loads(lines[-1])
    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(summary["metrics"]) != want:
        sys.stdout.write(res.stdout)
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json" % sorted(set(summary["metrics"]) ^ want))
    sys.stdout.write(res.stdout)


def results(directory, trace):
    """Result records of one directory, keyed by workload then seed."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace%d.json" % trace)):
        r = load_json(path)
        out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


def metric_values(runs, name):
    vals = {}
    for seed, r in runs.items():
        m = r["summary"]["metrics"].get(name) or (r.get("extra") or {}).get(name)
        if m is not None:
            vals[seed] = m["value"]
    return vals


def verdict(parent, change, better, bound):
    """The improved / within bound / worse / unresolved rule for one row."""
    p = sorted(parent.values())
    c = sorted(change.values())
    pq1, pmed, pq3 = quartiles(p)
    _, cmed, _ = quartiles(c)
    sign = 1 if better == "higher" else -1
    pairs = [s for s in parent if s in change]
    wins = sum(1 for s in pairs if sign * (change[s] - parent[s]) > 0)
    all_better = min(c) > max(p) if better == "higher" else max(c) < min(p)
    spread = pq3 - pq1
    if pairs and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > spread:
        return "improved", pmed, cmed
    if pmed != 0 and spread / abs(pmed) > bound and not all_better:
        return "unresolved", pmed, cmed
    worse = -sign * (cmed - pmed) / (abs(pmed) if pmed else 1.0)
    return ("worse" if worse > bound else "within bound"), pmed, cmed


def compare(parent_dir, change_dir):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "spec.json"))
    p_e2e, c_e2e = results(parent_dir, 0), results(change_dir, 0)
    p_lay, c_lay = results(parent_dir, 1), results(change_dir, 1)
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [(n, m["better"], m["bound"]) for n, m in meta["ungated"].items() if n != "about"]
    print("%-8s %-24s %12s %12s %8s  %-13s per-layer (parent -> change)" %
          ("workload", "metric", "parent", "change", "delta", "verdict"))
    for workload in sorted(set(p_e2e) & set(c_e2e)):
        for name, better, bound in rows:
            pv, cv = metric_values(p_e2e[workload], name), metric_values(c_e2e[workload], name)
            if not pv or not cv:
                continue
            v, pmed, cmed = verdict(pv, cv, better, bound)
            delta = (cmed - pmed) / pmed * 100 if pmed else 0.0
            layers = []
            for lname, lm in meta["per_layer"].items():
                if not any(mv["metric"] == name and mv["workload"] == workload for mv in lm["moves"]):
                    continue
                lp = metric_values(p_lay.get(workload, {}), lname)
                lc = metric_values(c_lay.get(workload, {}), lname)
                if lp and lc:
                    layers.append("%s %.4g->%.4g" % (lname, statistics.median(lp.values()),
                                                       statistics.median(lc.values())))
            print("%-8s %-24s %12.4f %12.4f %+7.1f%%  %-13s %s" %
                  (workload, name, pmed, cmed, delta, v, "; ".join(layers)))


def spread(directory):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    runs = results(directory, 0)
    worst = 0.0
    for workload in sorted(runs):
        for m in spec["end_to_end"]:
            vals = list(metric_values(runs[workload], m["name"]).values())
            if len(vals) < 2:
                continue
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else float("inf")
            flag = "" if rel < m["bound"] / 3 else (" > bound/3" if rel <= m["bound"] else " > BOUND")
            if m["name"] != "setup_s":
                worst = max(worst, rel / m["bound"])
            print("%-8s %-24s n=%-3d median %12.4f  spread %6.3f  bound %.2f%s" %
                  (workload, m["name"], len(vals), med, rel, m["bound"], flag))
    print("worst spread as a share of its bound (setup_s aside): %.2f" % worst)


def run_all(seed):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    for w in spec["workloads"]:
        run(argparse.Namespace(workload=w["name"], seed=seed, seconds=spec["run_seconds"], trace=0))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "all":
        ap = argparse.ArgumentParser(description="Run every MIX benchmark workload once.")
        ap.add_argument("--seed", type=int, default=1)
        return run_all(ap.parse_args(sys.argv[2:]).seed)
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR")
        return compare(sys.argv[2], sys.argv[3])
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        return spread(sys.argv[2] if len(sys.argv) > 2 else os.path.join(BUILD, "results"))
    ap = argparse.ArgumentParser(description="Run one MIX benchmark workload.")
    ap.add_argument("--workload", required=True, choices=["browse", "query", "serve", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
