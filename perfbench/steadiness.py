#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py run <out.json> [--runs 10] [--sets 2] [--workloads a,b]
    python3 perfbench/steadiness.py report <out.json>

`run` makes `--sets` sets of `--runs` untraced runs of every workload, each
run with its own seed, and appends every result to <out.json> as it
lands. `report` prints, per workload and end-to-end metric: each set's
median, the spread (distance between the first and third quartile as a
share of the median), whether the spread stays within the metric's
bound, whether the second set's median is within the bound of the first,
and whether a 2x change of the median would fall outside the bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(out, runs, sets, workloads):
    bench = load_benchmark()
    names = workloads or [w["name"] for w in bench["workloads"]]
    results = json.load(open(out)) if os.path.exists(out) else []
    for s in range(sets):
        for r in range(runs):
            for name in names:
                seed = 1000 * (s + 1) + r
                command = [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                ok = proc.returncode == 0 and len(lines) >= 2
                result = json.loads(lines[-1]) if ok else None
                detail = json.loads(lines[-2])["detail"] if ok else None
                results.append({"set": s, "workload": name, "seed": seed,
                                "exit": proc.returncode, "result": result, "detail": detail})
                with open(out, "w") as f:
                    json.dump(results, f, indent=1)
                print(name, seed, proc.returncode,
                      result and {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                      flush=True)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(out):
    bench = load_benchmark()
    results = json.load(open(out))
    failures = [r for r in results if r["result"] is None or not r["result"]["correct"]]
    print(f"{len(results)} runs, {len(failures)} failed or incorrect")
    for w in bench["workloads"]:
        print(f"\n{w['name']}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {}
            for r in results:
                if r["workload"] == w["name"] and r["result"]:
                    sets.setdefault(r["set"], []).append(r["result"]["metrics"][name]["value"])
            cells = []
            medians = []
            for s in sorted(sets):
                values = sets[s]
                if len(values) < 2:
                    continue
                m, sp = statistics.median(values), spread(values)
                medians.append(m)
                ok = "ok" if sp <= bound or name == "setup_s" else "WIDE"
                cells.append(f"set{s}: n={len(values)} median={m:.6g} spread={sp:.3f} {ok}")
            drift = ""
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                drift = f"second-vs-first {worse:+.3f} {'ok' if worse <= bound else 'WORSE'}"
            catches = f"2x outside bound: {'yes' if 1.0 > bound else 'no'}"
            print(f"  {name:<15} bound={bound:<5} " + " | ".join(cells) + f" | {drift} | {catches}")


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in ("run", "report"):
        print(__doc__, file=sys.stderr)
        return 2
    out = sys.argv[2]
    if sys.argv[1] == "report":
        report(out)
        return 0
    args = sys.argv[3:]
    opts = {"--runs": "10", "--sets": "2", "--workloads": ""}
    for flag, value in zip(args[::2], args[1::2]):
        opts[flag] = value
    workloads = [w for w in opts["--workloads"].split(",") if w]
    run(out, int(opts["--runs"]), int(opts["--sets"]), workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
