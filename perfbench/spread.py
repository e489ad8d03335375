"""Runs one workload of the benchmark over several seeds and prints, per
metric, the median and the interquartile spread as a share of the median
(the figure the benchmark's bounds are judged against).

    python3 perfbench/spread.py --workload cold_flow --seeds 1 2 3 4 5

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: output check failed\n{out.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = 0.0
        bound = bounds.get(name)
        note = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
        print(f"{name:24s} median {med:.6g} spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
