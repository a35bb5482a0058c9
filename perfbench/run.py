"""qcorr benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload state-files --seed 0 --seconds 20 --trace 0

Run it from the root of a qcorr checkout; it imports the program from that
checkout's `src/` and from nowhere else, and exits with code 2 if there is
none. It writes the workload's inputs under `.perfbench_work/`, runs the
timed passes in one worker process, which also times `SETUP_SAMPLES` fresh
set-ups between them, checks every output (see check.py), and prints two JSON lines: the
details of the run (machine, seed, inputs, per-op times, the median command
latency, errors), then the result. With `--trace 0` the result holds the
end-to-end metrics; with `--trace 1` the per-layer ones. `--smoke` shrinks
every workload to 4 qubits for the benchmark's own tests.

A run that has not ended after `RUN_LIMIT_S` (or four times `--seconds`, if
that is longer) stops its worker and prints a result in which every op of the
pass failed, so a program too slow to finish still gets a result rather than
a crash.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is loaded here and inherited by the worker.
# On a 2-core machine shared with other load, OpenBLAS threads that wait on
# each other turned a 4 s command into 30-60 s; one thread degrades in
# proportion to the load instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 16
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",         # minimum over fresh processes: import qcorr + one warm-up call
    "wall_s": "s",          # time of one untraced pass, from each command's mean latency
    "ccm_per_s": "1/s",     # CCM evaluations of one pass over wall_s
    "peak_rss_mb": "MB",    # peak resident memory of the worker process
    "ok_frac": "frac",      # 1 - failed / attempted commands
}

# Per-layer metrics are per traced pass. "X.s" is the self time of span X
# (its duration minus its child spans); ccm.ccm.s and
# entropy.multi_information.s are inclusive, and ccm.combine.s is the self
# time of ccm (the DP loop and the tree build).
SELF_TIME = {
    "states.read_qs1.s": "states.read_qs1",
    "states.check_psd.s": "states.check_psd",
    "states.partial_trace.s": "states.partial_trace",
    "states.validate.s": "states.validate",
    "states.to_density.s": "states.to_density",
    "entropy.eig.s": "entropy.eig",
    "entropy.von_neumann.s": "entropy.von_neumann",
    "ccm.combine.s": "ccm.ccm",
    "spin_models.build.s": "spin_models.build",
    "linalg.eigh.s": "linalg.eigh",
    "spin_models.ground_state.s": "spin_models.ground_state",
    "channels.apply.s": "channels.apply",
    "sweeps.write_csv.s": "sweeps.write_csv",
    "cli.main.s": "cli.main",
}
INCLUSIVE = {"ccm.ccm.s": "ccm.ccm", "entropy.multi_information.s": "entropy.multi_information"}
CALLS = ["states.partial_trace", "states.validate", "entropy.eig", "spin_models.build",
         "channels.apply"]
COUNTERS = {
    "states.read_qs1.lines": "count",
    "states.partial_trace.bytes_computed": "B",
    "entropy.eig.flops_computed": "flop",
    "ccm.bipartitions": "count",
    "ccm.entropies": "count",
    "sweeps.csv_bytes": "B",
}
PER_LAYER = {
    **{name: "s" for name in [*SELF_TIME, *INCLUSIVE]},
    **{f"{span}.calls": "count" for span in CALLS},
    **COUNTERS,
    "entropy.eig.dim_max": "count",
    "spin_models.ground_rank_mean": "rank",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.layer_frac": "frac",
}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "numpy": np.__version__, "python": platform.python_version()}


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _judge(wl: workloads.Workload, result: dict, use_golden: bool) -> tuple[int, list]:
    """Failed op count and the error list; an op fails on a non-zero exit, an
    output that differs from the first pass's, or a failed check."""
    try:
        errors = check.check(wl.name, wl.expect, result["first"], use_golden)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errors = [f"outputs could not be checked: {exc!r}"] * len(wl.ops)
    first = result["passes"][0]["ops"]
    failed = 0
    for p in result["passes"]:
        for op in p["ops"]:
            i = op["index"]
            failed += bool(op["rc"] != 0 or op["digest"] != first[i]["digest"] or errors[i])
    for i, op in enumerate(first):
        if op["rc"] != 0:
            errors[i] = f"exit {op['rc']!r}; {errors[i]}"
    return failed, [e for e in errors if e]


def end_to_end(wl: workloads.Workload, result: dict, ok_frac: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the per-command latency summary for the details.

    wall_s is the time of one pass, as the sum over its commands of each
    one's mean latency in the run; ccm_per_s is the pass's CCM evaluations
    over wall_s.
    """
    plain = [op for p in result["passes"] if p["mode"] == "plain" for op in p["ops"]]
    latencies = [[op["seconds"] for op in plain if op["index"] == i] for i in range(len(wl.ops))]
    wall = sum(statistics.fmean(t) for t in latencies)
    metrics = {
        "setup_s": min(result["setup_s"]),
        "wall_s": wall,
        "ccm_per_s": sum(wl.ccm_per_op) / wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": ok_frac,
    }
    ops = {"op_p50_s": statistics.median(statistics.median(t) for t in latencies),
           "op_samples": len(plain)}
    return metrics, ops


def per_layer(result: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the self time of every span, both per traced pass."""
    tr = result["trace"]
    traced = [p["seconds"] for p in result["passes"] if p["mode"] == "traced"]
    plain = [p["seconds"] for p in result["passes"] if p["mode"] == "plain"]
    n = len(traced)
    traced_wall = sum(traced) / n
    self_s = {span: t / n for span, t in tr["self"].items()}
    counters = tr["counters"]
    metrics = {
        **{m: tr["self"].get(span, 0.0) / n for m, span in SELF_TIME.items()},
        **{m: tr["total"].get(span, 0.0) / n for m, span in INCLUSIVE.items()},
        **{f"{span}.calls": tr["calls"].get(span, 0) / n for span in CALLS},
        **{m: counters.get(m, 0.0) / n for m in COUNTERS},
        "entropy.eig.dim_max": counters.get("entropy.eig.dim_max", 0.0),
        "spin_models.ground_rank_mean":
            counters.get("ground_rank_sum", 0.0) / max(counters.get("ground_rank_n", 0.0), 1.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / (sum(plain) / len(plain)) - 1.0,
        "trace.layer_frac":
            sum(t for span, t in self_s.items() if span != "cli.main") / traced_wall,
    }
    return metrics, self_s


def _write_golden(wl: workloads.Workload, result: dict) -> None:
    golden = json.loads(check.GOLDEN.read_text()) if check.GOLDEN.exists() else {}
    golden[wl.name] = check.golden_entry(wl.name, wl.expect, result["first"])
    check.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _print_timed_out(args: argparse.Namespace, wl: workloads.Workload, elapsed: float) -> int:
    """The result of a run stopped at its time limit: every op of the pass failed.

    setup_s and wall_s are the time the run had when it was stopped, and
    peak_rss_mb the largest of its child processes.
    """
    error = f"stopped at the time limit after {elapsed:.1f} s"
    print(f"check failed: {error}", file=sys.stderr)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    values = {"setup_s": elapsed, "wall_s": elapsed,
              "ccm_per_s": sum(wl.ccm_per_op) / elapsed, "peak_rss_mb": peak, "ok_frac": 0.0}
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"workload": wl.name, "seed": args.seed, "machine": machine(),
                      "errors": [error]}))
    print(json.dumps({
        "correct": False,
        "attempted": len(wl.ops),
        "failed": len(wl.ops),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def measure(args: argparse.Namespace, src: Path, work: Path) -> int:
    start = time.perf_counter()
    limit = max(RUN_LIMIT_S, 4 * args.seconds)
    wl = workloads.build(args.workload, args.seed, work, args.smoke)
    spec = {"src": str(src), "ops": wl.ops, "outs": [_option(op, "--out") for op in wl.ops],
            "warmup": wl.warmup, "seconds": args.seconds, "trace": bool(args.trace),
            "setup_samples": SETUP_SAMPLES}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = work / "result.json"
    try:  # subprocess.run kills a worker that overruns and waits for it to end
        proc = subprocess.run([sys.executable, str(WORKER), "run", str(spec_path), str(out_path)],
                              timeout=max(limit - (time.perf_counter() - start), 0.01),
                              check=False)
    except subprocess.TimeoutExpired:
        return _print_timed_out(args, wl, time.perf_counter() - start)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out_path.read_text())

    use_golden = args.seed == 0 and not args.smoke and not args.write_golden
    failed, errors = _judge(wl, result, use_golden)
    attempted = sum(len(p["ops"]) for p in result["passes"])
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if args.write_golden and not errors:
        _write_golden(wl, result)

    detail = {"workload": wl.name, "seed": args.seed, "why": workloads.WHY[wl.name],
              "machine": machine(), "input_shares": wl.shares, "errors": errors,
              "setup_samples_s": result["setup_s"],
              "passes": [{"mode": p["mode"], "seconds": p["seconds"],
                          "op_seconds": {op["index"]: op["seconds"] for op in p["ops"]}}
                         for p in result["passes"]]}
    if args.trace:
        values, detail["trace_self_s"] = per_layer(result)
        kinds = result["trace"]["kinds"]
        detail["input_ranks"] = {k: c / sum(kinds.values()) for k, c in kinds.items()}
        units = PER_LAYER
    else:
        values, ops = end_to_end(wl, result, 1.0 - failed / attempted)
        detail.update(ops)
        units = END_TO_END
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="4-qubit inputs, for tests")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's outputs as the default seed's golden values")
    args = parser.parse_args(argv)
    if args.write_golden and (args.seed != 0 or args.smoke):
        parser.error("golden values are recorded at seed 0 without --smoke")

    root = Path.cwd()
    src = root / "src"
    if not (src / "qcorr" / "cli.py").is_file():
        print(f"error: no qcorr sources under {src}; run from the root of a qcorr checkout",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
