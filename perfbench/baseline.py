"""Run workloads over several seeds and record the results as JSON.

Run from the root of a checkout::

    python3 perfbench/baseline.py --label baseline --seeds 1,2,3,4,5,6,7,8,9,10

By default it runs the workloads and ``run_seconds`` of ``BENCHMARK.json``;
``--workloads`` and ``--seconds`` choose others.  For each workload this runs
``run.py`` once per seed untraced and once traced
(at the first seed), then writes ``perfbench/results/<label>.json`` with every
run's result, the median and quartile spread of each end-to-end metric, and
the machine metadata.  A spread is (Q3 - Q1) / median over the seeds, as
``statistics.quantiles(values, n=4)`` gives the quartiles.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run



def benchmark_json():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, trace, seconds):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return json.loads(lines[-1]), meta


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=None,
                    help="comma separated; default: those of BENCHMARK.json")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = benchmark_json()
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in bench["workloads"]]

    report = {"label": args.label, "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for name in workloads:
        runs = []
        for seed in seeds:
            result, report["meta"] = run_once(name, seed, 0, seconds)
            runs.append(result)
            print(name, seed, {k: round(v["value"], 4)
                               for k, v in result["metrics"].items()}, flush=True)
        traced, _ = run_once(name, seeds[0], 1, seconds)
        report["workloads"][name] = {
            "end_to_end": summarize(runs),
            "fail_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "runs": runs, "traced": traced}
        for metric, s in report["workloads"][name]["end_to_end"].items():
            print(f"  {name} {metric}: median {s['median']:.4g} {s['unit']}, "
                  f"spread {s['spread']:.3%}", flush=True)
    os.makedirs(os.path.join(run.HERE, "results"), exist_ok=True)
    path = os.path.join(run.HERE, "results", f"{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
