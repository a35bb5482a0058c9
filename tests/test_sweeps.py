import math
import os
import pathlib

import numpy as np
import pytest

from qcorr import (
    ParamRange,
    SweepConfig,
    build_grid,
    central_difference,
    noise_sweep_rows,
    sweep_rows,
    write_csv,
)
from qcorr.cli import main
from qcorr.errors import OutOfRange, TooLarge

DATA = pathlib.Path(__file__).resolve().parent / "data" / "sweep"


def test_param_range_validation():
    with pytest.raises(OutOfRange):
        ParamRange(0.0, 1.0, 1)
    with pytest.raises(OutOfRange):
        ParamRange(0.0, math.inf, 3)
    with pytest.raises(OutOfRange):
        ParamRange(1.0, 1.0, 3)
    assert ParamRange(0.0, 1.0, 5).step == pytest.approx(0.25)


def test_build_grid_plain():
    assert np.allclose(build_grid(0.0, 2.0, 5), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_build_grid_nudges_interior_point():
    grid = build_grid(0.0, 2.0, 5, exclude=(1.0,))
    assert np.allclose(grid, [0.0, 0.5, 1.25, 1.5, 2.0])
    assert not np.any(np.abs(grid - 1.0) < 1e-9)


def test_build_grid_nudges_endpoint_inward():
    # the last point moves down even when it lies just above the excluded value
    for stop in (1.0, 1.0000000001):
        grid = build_grid(0.0, stop, 3, exclude=(1.0,))
        assert np.allclose(grid, [0.0, 0.5, 0.75])
        assert grid[-1] <= stop


def test_build_grid_miss_leaves_grid_alone():
    grid = build_grid(0.0, 2.0, 5, exclude=(0.3,))
    assert np.allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_central_difference_quadratic():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [x * x for x in xs]
    assert central_difference(xs, ys) == pytest.approx([1.0, 2.0, 4.0, 5.0])


def test_central_difference_uses_actual_spacing():
    xs = [0.0, 0.5, 1.5]
    ys = [0.0, 1.0, 1.0]
    got = central_difference(xs, ys)
    assert got[1] == pytest.approx((ys[2] - ys[0]) / (xs[2] - xs[0]))
    with pytest.raises(OutOfRange):
        central_difference([0.0], [1.0])


def test_config_validation():
    grid = ParamRange(0.0, 0.5, 2)
    with pytest.raises(OutOfRange):
        SweepConfig(model="heisenberg", spins=3, param=grid)
    with pytest.raises(OutOfRange):
        SweepConfig(model="dxxz", spins=2, param=grid)  # needs param2
    with pytest.raises(OutOfRange):
        SweepConfig(model="xxz", spins=3, param=grid, param2=grid)
    with pytest.raises(OutOfRange):
        SweepConfig(model="dxxz", spins=2, param=grid, param2=grid, derivative=True)
    with pytest.raises(OutOfRange):
        SweepConfig(model="ising", spins=3, param=grid, noise=grid)
    with pytest.raises(OutOfRange):
        SweepConfig(model="xxz", spins=3, param=grid, noise=ParamRange(0.0, 1.5, 2))
    with pytest.raises(OutOfRange):
        SweepConfig(model="xxz", spins=3, param=grid, channel="depolarizing")
    with pytest.raises(TooLarge):
        SweepConfig(model="xxz", spins=11, param=grid)
    with pytest.raises(TooLarge):
        SweepConfig(model="dxxz", spins=6, param=grid, param2=grid)
    assert SweepConfig(model="dxxz", spins=2, param=grid, param2=grid).total_qubits == 4


@pytest.mark.parametrize("field", [{"mode": "first"}, {"unit": "bits"}])
def test_config_takes_enums_only(field):
    # A string mode would run the mixture; a string unit would fail at the first point.
    with pytest.raises(TypeError):
        SweepConfig(model="xxz", spins=3, param=ParamRange(0.0, 0.5, 2), **field)


def test_xxz_sweep_shape_and_order():
    config = SweepConfig(model="xxz", spins=3, param=ParamRange(0.0, 2.0, 5), include_tv=True)
    header, rows = sweep_rows(config)
    assert header == ["param", "ccm", "tv"]
    xs = [r[0] for r in rows]
    assert xs == [0.0, 0.5, 1.25, 1.5, 2.0]  # delta = 1 displaced
    assert all(len(r) == 3 for r in rows)
    assert all(r[1] >= 0 and r[2] >= 0 for r in rows)


def test_ising_derivative_column():
    config = SweepConfig(model="ising", spins=3, param=ParamRange(0.5, 1.5, 3), derivative=True)
    header, rows = sweep_rows(config)
    assert header == ["param", "ccm", "dccm"]
    assert [r[0] for r in rows] == [0.5, 1.0, 1.5]  # no displacement for ising
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    assert [r[2] for r in rows] == pytest.approx(central_difference(xs, ys))


def test_dxxz_sweep_row_order():
    config = SweepConfig(model="dxxz", spins=2, param=ParamRange(0.0, 0.5, 2),
                         param2=ParamRange(-0.5, 0.5, 2))
    header, rows = sweep_rows(config)
    assert header == ["param", "param2", "ccm"]
    assert [(r[0], r[1]) for r in rows] == [
        (0.0, -0.5), (0.0, 0.5), (0.5, -0.5), (0.5, 0.5)]


def test_dxxz_sweep_n5_is_unchanged(tmp_path, capsys):
    # Written when double rings took the trivial group; the 5 x 5 grid holds
    # equal rings (swap of the rings accepted) on its diagonal and unequal
    # rings (D_5 x D_5) off it.
    out = tmp_path / "dxxz.csv"
    grid = ["--param-start", "-1.5", "--param-stop", "1.5", "--param-steps", "5"]
    assert main(["sweep", "--model", "dxxz", "--spins", "5", *grid,
                 *[arg.replace("param", "param2") for arg in grid], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "dxxz_n5.csv").read_bytes()
    assert capsys.readouterr().out == ""


def test_xxz_n10_tv_sweep_is_unchanged(tmp_path, capsys):
    # Recorded before twin sectors shared their eigensolves, popcount-aligned
    # factors took block-diagonal Gram matrices and tv came from the CCM
    # table.  The grid holds points on both sides of delta = 1; at 1.4 the
    # level is the twin pair popcount 0 and 10, a rank-2 mixture.
    out = tmp_path / "xxz.csv"
    assert main(["sweep", "--model", "xxz", "--spins", "10", "--param-start", "-1.6", "--param-stop", "1.4",
                 "--param-steps", "7", "--tv", "--derivative", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "xxz_n10_tv.csv").read_bytes()
    assert capsys.readouterr().out == ""


def test_noise_sweep_layout():
    config = SweepConfig(model="xxz", spins=2, param=ParamRange(0.0, 0.5, 2),
                         noise=ParamRange(0.0, 0.4, 2), channel="standard")
    header, rows, summaries = noise_sweep_rows(config)
    assert header == ["param", "p", "ccm"]
    assert [(r[0], r[1]) for r in rows] == [
        (0.0, 0.0), (0.0, 0.4), (0.5, 0.0), (0.5, 0.4)]
    assert len(summaries) == 2
    assert all(s.startswith("# prominence p=") for s in summaries)


def test_sweep_rows_refuses_a_noise_config():
    config = SweepConfig(model="xxz", spins=2, param=ParamRange(0.0, 0.5, 2),
                         noise=ParamRange(0.0, 0.4, 2))
    with pytest.raises(OutOfRange, match="noise_sweep_rows"):
        sweep_rows(config)


def test_noise_is_contractive_pointwise():
    clean = SweepConfig(model="xxz", spins=2, param=ParamRange(-0.5, 0.5, 3))
    noisy = SweepConfig(model="xxz", spins=2, param=ParamRange(-0.5, 0.5, 3),
                        noise=ParamRange(0.3, 0.6, 2))
    _, clean_rows = sweep_rows(clean)
    _, noisy_rows, _ = noise_sweep_rows(noisy)
    clean_at = {r[0]: r[1] for r in clean_rows}
    for x, _, value in noisy_rows:
        assert value <= clean_at[x] + 1e-9


# --- CSV ----------------------------------------------------------------------


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["param", "ccm"], [(0.5, 1.0), (-0.0, 2.0 / 3.0)])
    text = path.read_text(encoding="ascii")
    assert text == "param,ccm\n0.500000000,1.000000000\n0.000000000,0.666666667\n"
    assert not os.path.exists(f"{path}.tmp")


def test_write_csv_is_deterministic(tmp_path):
    config = SweepConfig(model="xxz", spins=2, param=ParamRange(0.0, 0.5, 3))
    header, rows = sweep_rows(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, header, rows)
    write_csv(b, header, rows)
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_replaces_existing_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("stale")
    write_csv(path, ["param", "ccm"], [(1.0, 1.0)])
    assert path.read_text().startswith("param,ccm\n")
