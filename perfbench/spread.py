"""Run one perfbench workload over several seeds and print, for every
metric of the result line, its median and its quartile spread (the
distance between the first and third quartiles as a share of the median).

    python3 perfbench/spread.py --workload serve --seeds 1-5 [--seconds 10] [--trace 0]

Run from the repository root. Each run goes through perfbench/run.sh, so
the first one also builds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    a = p.parse_args()
    values = {}
    for seed in seeds(a.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", a.seconds, "--trace", a.trace],
            capture_output=True, text=True, check=False)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            result = json.loads(last)
        except ValueError:
            sys.exit(f"seed {seed}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median {med:14.6f}  spread {spread:7.3f}  n={len(v)}")


if __name__ == "__main__":
    main()
