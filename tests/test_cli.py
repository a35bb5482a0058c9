import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qcorr import ghz_closed_form, make_ghz, write_qs1
from qcorr.checks import CheckResult
from qcorr.cli import main
from qcorr.sampling import random_density

SWEEP_DATA = pathlib.Path(__file__).resolve().parent / "data" / "sweep"


@pytest.fixture
def ghz3_file(tmp_path):
    path = tmp_path / "ghz3.qs1"
    write_qs1(path, make_ghz(3))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- ghz ----------------------------------------------------------------------


def test_ghz_closed(capsys):
    code, out = run(capsys, "ghz", "4", "--mode", "closed")
    assert code == 0
    assert out == "4 5.000000000\n"


def test_ghz_closed_in_bits(capsys):
    code, out = run(capsys, "ghz", "4", "--mode", "closed", "--unit", "bits")
    assert code == 0
    assert out == "4 10.000000000\n"


def test_ghz_direct(capsys):
    code, out = run(capsys, "ghz", "3", "--mode", "direct")
    assert code == 0
    n, value = out.split()
    assert n == "3"
    assert float(value) == pytest.approx(2.5, abs=1e-9)


def test_ghz_both_reports_agreement(capsys):
    code, out = run(capsys, "ghz", "5")
    assert code == 0
    n, closed, direct, diff = out.split()
    assert (n, closed) == ("5", "10.000000000")
    assert float(direct) == pytest.approx(10.0, abs=1e-9)
    assert float(diff) < 1e-9


def test_ghz_range_errors(capsys):
    assert run(capsys, "ghz", "11")[0] == 2          # closed form stops at 10
    assert run(capsys, "ghz", "1")[0] == 2
    assert run(capsys, "ghz", "9", "--mode", "direct")[0] == 2


# --- ccm / tv -----------------------------------------------------------------


def test_ccm_value(capsys, ghz3_file):
    code, out = run(capsys, "ccm", ghz3_file)
    assert code == 0
    assert out == "2.500000000\n"


def test_ccm_bits_and_naive(capsys, ghz3_file):
    assert run(capsys, "ccm", ghz3_file, "--unit", "bits")[1] == "5.000000000\n"
    assert run(capsys, "ccm", ghz3_file, "--naive")[1] == "2.500000000\n"


def test_ccm_report_json(capsys, ghz3_file):
    code, out = run(capsys, "ccm", ghz3_file, "--report")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.5, abs=1e-9)
    assert payload["unit"] == "normalized"
    assert payload["tree"]["subset"] == 0b111
    assert set(payload) == {"value", "unit", "tree"}


def test_ccm_report_on_an_11_qubit_pure_file(capsys, tmp_path):
    path = tmp_path / "ghz11.qs1"
    write_qs1(path, make_ghz(11))
    code, out = run(capsys, "ccm", str(path), "--report")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(ghz_closed_form(11), abs=1e-9)
    root = payload["tree"]
    assert root["subset"] == 0b11111111111
    assert bin(root["mask_a"]).count("1") in (5, 6)  # the most even split


def test_ccm_mixed_file(capsys, tmp_path):
    rho = random_density(2, np.random.default_rng(3))
    path = tmp_path / "mixed.qs1"
    write_qs1(path, rho)
    code, out = run(capsys, "ccm", str(path))
    assert code == 0
    assert float(out) >= 0.0


def test_tv(capsys, ghz3_file):
    code, out = run(capsys, "tv", ghz3_file)
    assert code == 0
    assert out == "1.500000000\n"
    assert run(capsys, "tv", ghz3_file, "--unit", "bits")[1] == "3.000000000\n"


def test_missing_file_is_an_input_error(capsys, tmp_path):
    assert run(capsys, "ccm", str(tmp_path / "absent.qs1"))[0] == 2


@pytest.mark.parametrize("text", [b"qs1 pure 1\nnot a number\n0 0\n", b"qs1 pure 1\n1 0\n0 \xc3\xa9\n"],
                         ids=["not-a-number", "non-ascii"])
def test_malformed_file_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "bad.qs1"
    path.write_bytes(text)
    for command in ("ccm", "tv"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_naive_size_guard_exit(capsys, tmp_path):
    path = tmp_path / "ghz7.qs1"
    write_qs1(path, make_ghz(7))
    assert run(capsys, "ccm", str(path), "--naive")[0] == 3
    # the dynamic program handles the same file
    code, out = run(capsys, "ccm", str(path))
    assert code == 0
    assert float(out) == pytest.approx(36.5, abs=1e-9)


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entangle"])
    assert exc.value.code == 2


# --- sweep / noise --------------------------------------------------------------


def test_sweep_xxz_csv(capsys, tmp_path):
    out_path = tmp_path / "xxz.csv"
    code, _ = run(capsys, "sweep", "--model", "xxz", "--spins", "3",
                  "--param-start", "0", "--param-stop", "2", "--param-steps", "5",
                  "--tv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param,ccm,tv"
    assert len(lines) == 6
    assert lines[3].startswith("1.250000000,")  # delta = 1 displaced off the crossing


def test_sweep_ising_derivative(capsys, tmp_path):
    out_path = tmp_path / "ising.csv"
    code, _ = run(capsys, "sweep", "--model", "ising", "--spins", "3",
                  "--param-start", "0.5", "--param-stop", "1.5", "--param-steps", "3",
                  "--derivative", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param,ccm,dccm"
    assert lines[2].startswith("1.000000000,")  # no displacement for ising


def test_sweep_dxxz_csv(capsys, tmp_path):
    out_path = tmp_path / "dxxz.csv"
    code, _ = run(capsys, "sweep", "--model", "dxxz", "--spins", "2",
                  "--param-start", "0", "--param-stop", "0.5", "--param-steps", "2",
                  "--param2-start", "-0.5", "--param2-stop", "0.5", "--param2-steps", "2",
                  "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param,param2,ccm"
    assert len(lines) == 5


def test_sweep_dxxz_needs_param2(capsys, tmp_path):
    code, _ = run(capsys, "sweep", "--model", "dxxz", "--spins", "2",
                  "--param-start", "0", "--param-stop", "0.5", "--param-steps", "2",
                  "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_param2_flags_must_travel_together(capsys, tmp_path):
    code, _ = run(capsys, "sweep", "--model", "dxxz", "--spins", "2",
                  "--param-start", "0", "--param-stop", "0.5", "--param-steps", "2",
                  "--param2-start", "0.0",
                  "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_size_guard_exit(capsys, tmp_path):
    code, _ = run(capsys, "sweep", "--model", "xxz", "--spins", "11",
                  "--param-start", "0", "--param-stop", "0.5", "--param-steps", "2",
                  "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert not (tmp_path / "x.csv").exists()


def test_noise_command(capsys, tmp_path):
    out_path = tmp_path / "noise.csv"
    code, out = run(capsys, "noise", "--spins", "2",
                    "--param-start", "0", "--param-stop", "0.5", "--param-steps", "2",
                    "--p-start", "0", "--p-stop", "0.4", "--p-steps", "2",
                    "--channel", "standard", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param,p,ccm"
    assert len(lines) == 5
    prominence_lines = [l for l in out.splitlines() if l.startswith("# prominence p=")]
    assert len(prominence_lines) == 2


def test_noise_p_range_validated(capsys, tmp_path):
    code, _ = run(capsys, "noise", "--spins", "2",
                  "--param-start", "0", "--param-stop", "0.5", "--param-steps", "2",
                  "--p-start", "0", "--p-stop", "1.5", "--p-steps", "2",
                  "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_first_vector_policy(capsys, tmp_path):
    out_path = tmp_path / "first.csv"
    code, _ = run(capsys, "sweep", "--model", "xxz", "--spins", "3",
                  "--param-start", "1.5", "--param-stop", "2.0", "--param-steps", "2",
                  "--degeneracy", "first", "--out", str(out_path))
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 3


@pytest.mark.parametrize("golden, argv", [
    ("xxz_n7_first.csv", ["--model", "xxz", "--spins", "7", "--param-start", "-2",
                          "--param-stop", "2", "--param-steps", "41", "--tv"]),
    ("ising_n8_first.csv", ["--model", "ising", "--spins", "8", "--param-start", "0",
                            "--param-stop", "2", "--param-steps", "21"]),
])
def test_sweep_first_vector_bytes(capsys, tmp_path, golden, argv):
    out_path = tmp_path / golden
    code, _ = run(capsys, "sweep", *argv, "--degeneracy", "first", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (SWEEP_DATA / golden).read_bytes()


@pytest.mark.parametrize("command", [
    ["sweep", "--model", "xxz"],
    ["noise", "--p-start", "0", "--p-stop", "0.1", "--p-steps", "2"],
])
def test_sweeps_take_no_seed(capsys, tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--spins", "3", "--param-start", "0", "--param-stop", "1",
              "--param-steps", "2", "--out", str(tmp_path / "x.csv"), "--seed", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --seed 1\n")


# --- check ----------------------------------------------------------------------


def test_check_command_passes(capsys):
    code, out = run(capsys, "check", "--seed", "11", "--count", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("checks passed")
    body = lines[:-1]
    assert len(body) >= 10
    assert all(line.startswith("PASS") for line in body)


def test_check_command_reports_failures(capsys, monkeypatch):
    import qcorr.cli as cli_module

    monkeypatch.setattr(cli_module, "run_default_checks",
                        lambda seed, count: [CheckResult("stub", False, "forced")])
    code, out = run(capsys, "check")
    assert code == 4
    assert "FAIL  stub" in out


# --- out of memory, interrupted ------------------------------------------------------


@pytest.mark.parametrize("raised, code, message", [
    (MemoryError("Unable to allocate 16.0 GiB"), 3,
     "error: out of memory: Unable to allocate 16.0 GiB\n"),
    (MemoryError(), 3, "error: out of memory\n"),
    (KeyboardInterrupt(), 130, "error: interrupted\n"),
])
def test_memory_error_and_interrupt_exit_cleanly(capsys, monkeypatch, ghz3_file,
                                                 raised, code, message):
    import qcorr.cli as cli_module

    def fail(args):
        raise raised

    monkeypatch.setattr(cli_module, "cmd_tv", fail)
    assert main(["tv", ghz3_file]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


# --- installed entry point --------------------------------------------------------


@pytest.mark.skipif(shutil.which("qcorr") is None, reason="console script not on PATH")
def test_console_script_roundtrip():
    proc = subprocess.run(["qcorr", "ghz", "3", "--mode", "closed"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "3 2.500000000\n"


# --- one parser per process -------------------------------------------------------


def test_consecutive_commands_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # The parser is built once per process: each command, run after others
    # with different subcommands and flags, must print and write what it
    # does in a process of its own, so no default leaks between parses.
    write_qs1(tmp_path / "mixed.qs1", random_density(3, np.random.default_rng(4)))
    sweep = ["--spins", "4", "--param-start", "-1.5", "--param-stop", "0.5", "--param-steps", "3"]
    noise = ["noise", *sweep, "--p-start", "0", "--p-stop", "0.8", "--p-steps", "3"]
    commands = [
        ["ghz", "4", "--mode", "closed", "--unit", "bits"],
        ["ghz", "4"],
        ["ccm", "mixed.qs1", "--report", "--unit", "bits"],
        ["ccm", "mixed.qs1"],
        ["tv", "mixed.qs1"],
        ["sweep", "--model", "xxz", *sweep, "--tv", "--derivative", "--unit", "bits",
         "--degeneracy", "first", "--out", "out.csv"],
        ["sweep", "--model", "xxz", *sweep, "--out", "out.csv"],
        [*noise, "--channel", "standard", "--out", "out.csv"],
        [*noise, "--out", "out.csv"],
        ["ghz", "9"],  # out of range: exit 2
        ["ccm", "mixed.qs1", "--naive"],
    ]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    csv = tmp_path / "out.csv"

    def written():
        data = csv.read_bytes() if csv.exists() else None
        csv.unlink(missing_ok=True)
        return data

    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        here = (code, capsys.readouterr().out, written())
        fresh = subprocess.run([sys.executable, "-m", "qcorr.cli", *argv], cwd=tmp_path, env=env,
                               capture_output=True, text=True, timeout=120)
        assert here == (fresh.returncode, fresh.stdout, written()), argv
