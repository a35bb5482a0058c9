"""Smoke tests of the benchmark itself, on 4-qubit inputs (about 20 s).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_metric_is_emitted_and_outputs_check(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        self_times = json.loads(detail_line)["trace_self_s"]
        assert sum(self_times.values()) <= metrics["trace.wall_s"] * (1 + 1e-9)
        assert 0.0 < metrics["trace.layer_frac"] <= 1.0
    else:
        assert metrics["ok_frac"] == 1.0
        assert all(v > 0 for v in metrics.values())


def test_benchmark_declares_what_run_emits():
    import run

    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WHY)


def test_missing_wrapped_name_is_reported_with_zero_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import qcorr.cli  # noqa: F401 - install() wraps the loaded modules

    plan = [*tracer.PLAN, ("gone.span", "qcorr.ccm", "no_such_function", "all", None),
            ("gone.module", "qcorr.no_such_module", "f", "here", None)]
    monkeypatch.setattr(tracer, "PLAN", plan)
    tr = tracer.Tracer()
    ccm_module = sys.modules["qcorr.ccm"]
    original = ccm_module.ccm
    undo = tracer.install(tr)
    try:
        assert ccm_module.ccm is not original
        assert sys.modules["qcorr.cli"].ccm is ccm_module.ccm
    finally:
        tracer.uninstall(undo)
    assert ccm_module.ccm is original
    assert tr.calls["gone.span"] == 0 and tr.calls["gone.module"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("noise-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_past_its_time_limit_reports_every_op_failed(trace, monkeypatch, capsys):
    import run

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.01)
    assert run.main(["--workload", "noise-sweep", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]


def _outputs(wl: workloads.Workload, monkeypatch) -> list[dict]:
    """Run a workload's pass in-process, as the worker does."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import qcorr.cli

    import worker

    outputs = []
    for argv in wl.ops:
        rc, stdout = worker._call(qcorr.cli.main, argv)
        assert rc == 0
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        outputs.append({"stdout": stdout, "csv": Path(out).read_text() if out else None})
    return outputs


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_checks_catch_a_wrong_value(workload, tmp_path, monkeypatch):
    import check

    wl = workloads.build(workload, 11, tmp_path, smoke=True)
    outputs = _outputs(wl, monkeypatch)
    assert check.check(workload, wl.expect, outputs, use_golden=False) == [None] * len(wl.ops)

    wrong = [dict(o) for o in outputs]
    if workload == "state-files":  # one distance term off by 1e-6, value still its sum
        report = json.loads(wrong[0]["stdout"])
        report["tree"]["distance_term"] += 1e-6
        report["tree"]["value"] += 1e-6
        report["value"] += 1e-6
        wrong[0]["stdout"] = json.dumps(report)
    else:  # the last CCM field of the CSV off by 1e-6
        header, *rows = wrong[0]["csv"].rstrip("\n").split("\n")
        fields = rows[-1].split(",")
        column = header.split(",").index("ccm")
        fields[column] = f"{float(fields[column]) + 1e-6:.9f}"
        wrong[0]["csv"] = "\n".join([header, *rows[:-1], ",".join(fields)]) + "\n"
    assert check.check(workload, wl.expect, wrong, use_golden=False)[0] is not None
