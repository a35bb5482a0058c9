"""`scripts/reproduce.py` end to end: its seven CSVs, the GHZ table and one
summary line per result."""

import csv
import os
import pathlib
import subprocess
import sys

import pytest

import qcorr
from qcorr import ghz_closed_form

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"
SRC = pathlib.Path(qcorr.__file__).resolve().parents[1]  # where the tests import qcorr from
# The seven CSVs as the script wrote them before subset entropies were shared
# across qubit-permutation orbits.
EXPECTED = pathlib.Path(__file__).resolve().parent / "data" / "reproduce"
# The CCM tolerance of the differential tests plus the nine-decimal rounding.
FIELD_TOL = 2e-9

RESULTS = ("ghz_table", "xxz_critical", "xxz_size_scaling", "double_chain", "noisy_xxz",
           "ising_derivative")
CSVS = {
    "xxz_critical.csv": (["param", "ccm", "tv"], 121),
    "xxz_peak_n4.csv": (["param", "ccm"], 13),
    "xxz_peak_n6.csv": (["param", "ccm"], 13),
    "xxz_peak_n8.csv": (["param", "ccm"], 13),
    "dxxz_surface.csv": (["param", "param2", "ccm"], 169),
    "noisy_xxz.csv": (["param", "p", "ccm"], 305),
    "ising_derivative.csv": (["param", "ccm", "dccm"], 101),
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("results")
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out-dir", str(out_dir)],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), out_dir


def test_writes_every_csv(run):
    _, out_dir = run
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(CSVS)
    for name, (header, count) in CSVS.items():
        with open(out_dir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) - 1 == count


def test_ghz_rows_match_closed_form(run):
    lines, _ = run
    rows = {int(f[0]): f[1:] for f in (line.split() for line in lines) if f[0].isdigit()}
    assert sorted(rows) == list(range(2, 11))
    for n, (closed, direct, _) in rows.items():
        assert float(closed) == pytest.approx(ghz_closed_form(n), abs=1e-6)
        if n <= 8:
            assert float(direct) == pytest.approx(ghz_closed_form(n), abs=1e-6)


def test_one_summary_line_per_result(run):
    lines, _ = run
    for name in RESULTS:
        assert sum(line.startswith(f"{name}: ") for line in lines) == 1


def test_csvs_match_the_recorded_results(run):
    _, out_dir = run
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(CSVS)
    for name in CSVS:
        with open(out_dir / name, newline="") as fh:
            got = list(csv.reader(fh))
        with open(EXPECTED / name, newline="") as fh:
            want = list(csv.reader(fh))
        assert got[0] == want[0]
        assert len(got) == len(want)
        for got_row, want_row in zip(got[1:], want[1:]):
            assert len(got_row) == len(want_row)
            for g, w in zip(got_row, want_row):
                assert float(g) == pytest.approx(float(w), abs=FIELD_TOL), (name, want_row)
