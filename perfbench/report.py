"""Tables for perfbench/README.md, regenerated by running the benchmark.

    python3 perfbench/report.py layers [--seed 1] [--seconds 20]
        one traced run per workload; Markdown table of each span's share of
        the traced round time, from the spans the runs write to perfbench/out/
    python3 perfbench/report.py spread [--seeds 1-10] [--seconds 20]
        untraced runs, one per seed and workload; median and quartile spread
        (IQR / median) of every end-to-end metric

Runs are made one at a time, each in its own process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the checks\n{proc.stderr}")
    return result


def layers(seed, seconds):
    shares = {}
    for name in workloads.WHY:
        run_once(name, seed, seconds, trace=1)
        with open(BENCH_DIR / "out" / f"spans-{name}-seed{seed}.json", encoding="utf-8") as fh:
            recorded = json.load(fh)["spans"]
        total = sum(end - start for span_name, start, end, _ in recorded if span_name == "round")
        shares[name] = {k: v / total for k, v in spans.self_time_by_name(recorded).items()}
    rows = sorted({k for s in shares.values() for k in s},
                  key=lambda k: -max(s.get(k, 0.0) for s in shares.values()))
    print("| span (self time) | " + " | ".join(shares) + " |")
    print("|---|" + "---:|" * len(shares))
    for row in rows:
        cells = [f"{100 * s[row]:.1f}%" if row in s else "-" for s in shares.values()]
        print(f"| `{row}` | " + " | ".join(cells) + " |")


def spread(seeds, seconds):
    print("| workload | metric | q1 | median | q3 | IQR / median | runs |")
    print("|---|---|---:|---:|---:|---:|---:|")
    for name in workloads.WHY:
        values = {}
        for seed in seeds:
            for metric, entry in run_once(name, seed, seconds, trace=0)["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {metric} | {q1:.4g} | {med:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {len(vals)} |", flush=True)


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("table", choices=("layers", "spread"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.table == "layers":
        layers(args.seed, args.seconds)
    else:
        spread(args.seeds, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
