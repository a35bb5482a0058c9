"""The single process that puts load on the program.

    python3 perfbench/worker.py setup SPEC.json        # one set-up sample
    python3 perfbench/worker.py run SPEC.json OUT.json  # the timed passes

`run.py` writes SPEC.json. The worker imports `qcorr` from the checkout's
`src/`, makes one untimed warm-up call, then runs whole passes of the
workload's command lines through `qcorr.cli.main`, the same entry point as the
`qcorr` console script. After the first pass it starts commands while the time
budget lasts, so the last pass may stop part way. With tracing on, whole
untraced and traced passes alternate, so one run gives both the per-layer
numbers and the tracing overhead.

Without tracing, the worker also takes the run's set-up samples: between
commands, it starts fresh `setup` processes at an even rate over the time
budget, with the command clock stopped. The machine's speed changes over
stretches of seconds, and samples spread over the whole run find a quiet
stretch more often than samples taken together.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def _import_cli(src: str):
    sys.path.insert(0, src)
    import qcorr.cli  # noqa: PLC0415 - the import is what set-up measures

    if not Path(qcorr.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"qcorr was imported from {qcorr.cli.__file__}, not from {src}")
    return qcorr.cli


def _call(main, argv: list[str]) -> tuple[object, str]:
    """Run one command line; returns (exit code or error, captured stdout)."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def setup(spec: dict) -> None:
    t0 = time.perf_counter()
    cli = _import_cli(spec["src"])
    rc, _ = _call(cli.main, spec["warmup"])
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "rc": rc}))


def _die_with_parent() -> None:
    """Have the kernel kill this process when its parent ends (Linux prctl)."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG


def _setup_sample(spec_path: str) -> float:
    # A sample must not outlive a worker that run.py stops at the time limit.
    proc = subprocess.run([sys.executable, __file__, "setup", spec_path],
                          capture_output=True, text=True, check=False,
                          preexec_fn=_die_with_parent)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if sample["rc"] != 0:
        raise RuntimeError(f"warm-up call returned {sample['rc']!r}")
    return sample["setup_s"]


def run(spec: dict, spec_path: str, out_path: str) -> None:
    cli = _import_cli(spec["src"])
    # Imported here, not at the top, so that `setup` times numpy's import within `import qcorr`.
    from tracer import Tracer, install, uninstall  # noqa: PLC0415

    _call(cli.main, spec["warmup"])
    tracer = Tracer() if spec["trace"] else None
    modes = ["plain", "traced"] if tracer else ["plain"]
    passes, first, setup_s = [], [], []
    samples = 0 if tracer else spec["setup_samples"]
    begin = time.perf_counter()
    aside = 0.0  # time spent taking set-up samples

    def used() -> float:
        return time.perf_counter() - begin - aside

    def time_left() -> bool:
        return used() < spec["seconds"]

    def sample_setup(due: int) -> None:
        nonlocal aside
        t0 = time.perf_counter()
        while len(setup_s) < min(due, samples):
            setup_s.append(_setup_sample(spec_path))
        aside += time.perf_counter() - t0

    while True:
        mode = modes[len(passes) % len(modes)]
        undo = install(tracer) if mode == "traced" else []
        main = tracer.wrap("cli.main", cli.main) if mode == "traced" else cli.main
        clock = tracer.now if mode == "traced" else time.perf_counter
        ops = []
        try:
            for i, (argv, out) in enumerate(zip(spec["ops"], spec["outs"])):
                if passes and not tracer and not time_left():
                    break  # untimed runs may end inside a pass; traced ones never do
                if samples:
                    sample_setup(1 + int(samples * used() / max(spec["seconds"], 1e-9)))
                if out:  # a stale file from the last pass must not stand in for this one
                    Path(out).unlink(missing_ok=True)
                t0 = clock()
                rc, stdout = _call(main, argv)
                seconds = clock() - t0
                csv = Path(out).read_text() if out and Path(out).exists() else None
                digest = hashlib.sha256(f"{rc}\0{stdout}\0{csv}".encode()).hexdigest()
                ops.append({"index": i, "seconds": seconds, "rc": rc, "digest": digest})
                if not passes:
                    first.append({"stdout": stdout, "csv": csv})
        finally:
            uninstall(undo)
        if mode == "traced":
            tracer.classify = False
        passes.append({"mode": mode, "seconds": sum(op["seconds"] for op in ops), "ops": ops})
        if len(passes) >= len(modes) and not time_left():
            break

    sample_setup(samples)
    result = {
        "passes": passes,
        "first": first,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = {"calls": tracer.calls, "total": tracer.total,
                           "self": tracer.self_time, "counters": tracer.counters,
                           "kinds": tracer.kinds}
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[2]).read_text())
    if sys.argv[1] == "setup":
        setup(spec)
    else:
        run(spec, sys.argv[2], sys.argv[3])
