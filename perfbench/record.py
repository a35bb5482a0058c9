"""Run every workload over several seeds and record the medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Run from the repository root. For each workload of BENCHMARK.json it makes one
untraced run per seed and one traced run at seed 0, each of `run_seconds`. It
then writes, per end-to-end metric, the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, plus the traced run's per-layer values, the details of that run and
the machine. Before-and-after comparisons of a change are two such files made
with the same settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
RUN = Path(__file__).with_name("run.py")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {"run_seconds": BENCH["run_seconds"], "seeds": args.seeds, "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in BENCH["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in args.seeds:
            _, result = _run(workload, seed, 0)
            all_correct &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        detail, traced = _run(workload, 0, 1)
        all_correct &= traced["correct"]
        record["machine"] = detail.pop("machine")
        end_to_end = {}
        for m in BENCH["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            end_to_end[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / median, "bound": m["bound"],
                                     "values": v}
            print(f"  {m['name']}: median {median:.6g} {m['unit']}, "
                  f"spread {(q3 - q1) / median:.4f} (bound {m['bound']})", flush=True)
        record["workloads"][workload] = {
            "why": detail["why"],
            "failed": failed,
            "attempted": attempted,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run": detail,
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
