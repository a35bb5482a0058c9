#!/usr/bin/env python3
"""Reproduce the paper's six results: one CSV per sweep, one summary line per result.

    python3 scripts/reproduce.py [--out-dir results]

Every result runs at fixed parameters through the library.  The CSVs are the
ones `qcorr sweep` and `qcorr noise` write for the same grids; each summary
line starts with the result's name.
"""

import argparse
import pathlib

import numpy as np

from qcorr import (
    ParamRange,
    SweepConfig,
    ccm,
    chain_terms,
    ghz_closed_form,
    ground_state,
    make_ghz,
    noise_sweep_rows,
    sweep_rows,
    write_csv,
    xxz_ring,
)

WIDE = ParamRange(-1.5, 1.5, 121)  # delta across both XXZ critical points


def sweep(out_dir: pathlib.Path, name: str, config: SweepConfig) -> list[tuple[float, ...]]:
    header, rows = sweep_rows(config)
    write_csv(out_dir / f"{name}.csv", header, rows)
    return rows


def ghz_table(out_dir):
    """Closed form for n = 2..10 next to the dynamic program for n <= 8."""
    print(f"{'n':>3} {'closed':>12} {'direct':>12} {'diff':>10}")
    worst = 0.0
    for n in range(2, 11):
        closed = ghz_closed_form(n)
        if n > 8:
            print(f"{n:>3} {closed:>12.6f} {'-':>12} {'-':>10}")
            continue
        direct = ccm(make_ghz(n)).value
        worst = max(worst, abs(closed - direct))
        print(f"{n:>3} {closed:>12.6f} {direct:>12.6f} {abs(closed - direct):>10.2e}")
    return f"closed form vs dynamic program for n=2..8: max |diff| {worst:.2e}"


def xxz_critical(out_dir):
    """N = 6 XXZ ring with T_V; the largest jump straddles delta = 1."""
    rows = sweep(out_dir, "xxz_critical", SweepConfig("xxz", 6, WIDE, include_tv=True))
    xs, values = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    k = int(np.argmax(np.abs(np.diff(values))))
    return (f"largest ccm jump {abs(values[k + 1] - values[k]):.3f} "
            f"between delta={xs[k]:.4f} and delta={xs[k + 1]:.4f}")


def xxz_size_scaling(out_dir):
    """Growth of the peak near delta = -1 with the ring size."""
    peaks = []
    for n in (4, 6, 8):
        rows = sweep(out_dir, f"xxz_peak_n{n}", SweepConfig("xxz", n, ParamRange(-1.3, -0.7, 13)))
        peak = max(rows, key=lambda r: r[1])
        peaks.append(f"N={n} peak ccm {peak[1]:.4f} at delta={peak[0]:.4f}")
    return "; ".join(peaks)


def double_chain(out_dir):
    """Two decoupled 3-site rings: the joint value is the sum of the rings'."""
    grid = ParamRange(-1.5, 1.5, 13)
    rows = sweep(out_dir, "dxxz_surface", SweepConfig("dxxz", 3, grid, param2=grid))
    single = {x: ccm(ground_state(chain_terms(xxz_ring(3, x)))).value for x in {r[0] for r in rows}}
    worst = max(abs(r[2] - single[r[0]] - single[r[1]]) for r in rows)
    return f"max |joint - (left + right)| over the surface: {worst:.3e}"


def noisy_xxz(out_dir):
    """N = 4 XXZ ring under per-qubit phase damping, p = 0..0.04."""
    config = SweepConfig("xxz", 4, ParamRange(-1.5, 1.5, 61), noise=ParamRange(0.0, 0.04, 5))
    header, rows, prominences = noise_sweep_rows(config)
    write_csv(out_dir / "noisy_xxz.csv", header, rows)
    print("\n".join(prominences))
    return f"{len(prominences)} damping strengths, {len(rows)} rows"


def ising_derivative(out_dir):
    """N = 6 transverse Ising ring; dccm/dlambda dips near the critical field."""
    config = SweepConfig("ising", 6, ParamRange(0.0, 2.0, 101), derivative=True)
    dip = min(sweep(out_dir, "ising_derivative", config), key=lambda r: r[2])
    return f"steepest descent at lambda={dip[0]:.3f} (dccm={dip[2]:.3f})"


RESULTS = (ghz_table, xxz_critical, xxz_size_scaling, double_chain, noisy_xxz, ising_derivative)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    out_dir = parser.parse_args().out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in RESULTS:
        print(f"{result.__name__}: {result(out_dir)}")


if __name__ == "__main__":
    main()
