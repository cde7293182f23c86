#!/usr/bin/env python3
"""Steadiness record for the serve benchmark.

Runs the benchmark command from BENCHMARK.json untraced on every workload
with seeds 1 to 10, in two batches (each batch takes the seeds in turn,
and every workload at each seed), then one traced run per workload, and
writes perfbench/STEADINESS.json: per batch, workload and metric the
median and quartiles over the seeds and the quartile spread as a share of
the median; per metric how far the second batch's median moved from the
first's, in the metric's worse direction; the same for the per-op-type
latencies an untraced run prints on standard error (`serve.*_ms`, not
gated); and for every run the host's steal share (from /proc/stat), so a
noisy host run is visible.

Usage, from the repository root:

    python3 perfbench/steadiness.py
"""

import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
BATCHES = 2
OUT = "perfbench/STEADINESS.json"


def cpu_times():
    """(steal, total) jiffies of the aggregate `cpu` line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def run_once(command, workload, seed, seconds, trace):
    steal0, total0 = cpu_times()
    start = time.monotonic()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    wall = time.monotonic() - start
    steal1, total1 = cpu_times()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    latency = {}
    for line in proc.stderr.splitlines():
        if "latency: " in line:
            for item in line.split("latency: ")[1].split(";")[0].split(", "):
                name, value = item.split(" ")
                latency[name] = float(value)
    run = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": round(wall, 3),
        "steal_share": round((steal1 - steal0) / max(1, total1 - total0), 5),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "latency": latency,
        "counters": [l for l in proc.stderr.splitlines() if "counters:" in l],
    }
    print(f"{workload} seed {seed} trace {trace}: {run['wall_s']} s, "
          f"steal {run['steal_share']}, correct {run['correct']}, "
          + ", ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
    return run


def summarize(runs, bounds, key="metrics"):
    out = {}
    for name in runs[0][key]:
        values = [r[key][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        entry = {"median": med, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / med if med else None}
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: [[] for _ in range(BATCHES)] for w in workloads}
    for batch in range(BATCHES):
        for seed in SEEDS:
            for workload in workloads:
                runs[workload][batch].append(run_once(command, workload, seed, seconds, 0))

    record = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads:
        batches = [{"summary": summarize(b, bounds),
                    "latency_summary": summarize(b, bounds, "latency"),
                    "runs": b} for b in runs[workload]]
        first, last = batches[0]["summary"], batches[-1]["summary"]
        drift = {
            name: (last[name]["median"] - first[name]["median"]) / first[name]["median"]
            * (1 if better[name] == "lower" else -1)
            for name in first if first[name]["median"]
        }
        lat0, lat1 = batches[0]["latency_summary"], batches[-1]["latency_summary"]
        record["workloads"][workload] = {
            "batches": batches,
            "median_drift": drift,
            "latency_median_drift": {
                name: (lat1[name]["median"] - lat0[name]["median"]) / lat0[name]["median"]
                for name in lat0
            },
            "traced": run_once(command, workload, SEEDS[0], seconds, 1),
        }
        for name in first:
            spreads = ", ".join(f"{b['summary'][name]['spread']:.3f}" for b in batches)
            print(f"  {workload} {name}: median {first[name]['median']:.4g}, "
                  f"spread {spreads}, drift {drift.get(name, 0):+.3f} "
                  f"(bound {bounds[name]})")
        for name in lat0:
            spreads = ", ".join(f"{b['latency_summary'][name]['spread']:.3f}" for b in batches)
            print(f"  {workload} {name}: median {lat0[name]['median']:.4g}, "
                  f"spread {spreads}, drift {(lat1[name]['median'] - lat0[name]['median']) / lat0[name]['median']:+.3f}")
    with open(OUT, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
