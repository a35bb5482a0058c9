"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Each test prints a short detail line (visible with -s or on
failure).  Tolerances are stated inline; random ensembles are seeded so the
gate is deterministic.
"""

import time

import numpy as np
import pytest

from qcorr import (
    DistanceUnit,
    ParamRange,
    SweepConfig,
    apply_channel_local,
    build_grid,
    ccm,
    ccm_naive,
    central_difference,
    chain_terms,
    full_mask,
    ghz_closed_form,
    ground_gap,
    ground_state,
    make_ghz,
    make_state_from_kets,
    multi_information,
    phase_damping_channel,
    sweep_rows,
    tensor_product,
    xxz_ring,
)
from qcorr.ccm import _ghz_value
from qcorr.checks import (
    check_additivity,
    check_ancilla_invariance,
    check_channel_contractivity,
    check_ghz_growth,
    check_local_unitary_invariance,
    check_mutual_info_vs_relative_entropy,
    check_nonnegativity,
    check_product_states,
    check_strong_subadditivity,
)
from qcorr.sampling import random_density

GHZ_TABLE = {2: 1.0, 3: 2.5, 4: 5.0, 5: 10.0, 6: 19.0, 7: 36.5, 8: 70.0, 9: 137.0, 10: 268.0}


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _ground_ccm(ham, unit=DistanceUnit.NORMALIZED):
    return ccm(ground_state(ham), unit).value


def test_criterion_01_ghz_table_exact_and_fast():
    exact = all(ghz_closed_form(n) == want for n, want in GHZ_TABLE.items())
    best = np.inf
    for _ in range(5):
        _ghz_value.cache_clear()
        t0 = time.perf_counter()
        for n in GHZ_TABLE:
            ghz_closed_form(n)
        best = min(best, time.perf_counter() - t0)
    ok = exact and best < 1e-3
    _line(1, ok, f"exact equality n=2..10: {exact}; cold-cache table in {best * 1e6:.0f} us")
    assert exact
    assert best < 1e-3


def test_criterion_02_dp_reproduces_closed_form():
    worst = 0.0
    for n in range(2, 9):
        direct = ccm(make_ghz(n)).value
        worst = max(worst, abs(direct - ghz_closed_form(n)))
    _line(2, worst <= 1e-9, f"max |dp - closed| over n=2..8 = {worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_03_worked_examples():
    bell = make_ghz(2)
    cases = [
        ("two independent pairs", tensor_product(bell, bell), 2.0),
        ("(|0000>+|1110>)/sqrt2", make_state_from_kets([(0, 1), (14, 1)], 4), 2.5),
        ("4-qubit GHZ", make_ghz(4), 5.0),
    ]
    worst = max(abs(ccm(rho).value - want) for _, rho, want in cases)
    _line(3, worst <= 1e-9, f"worst deviation {worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_04_property_suites():
    rng = np.random.default_rng(20240817)
    results = [
        check_nonnegativity(rng, 200),
        check_product_states(rng, 200),
        check_local_unitary_invariance(rng, 200),
        check_ancilla_invariance(rng, 200),
        check_channel_contractivity(rng, 200),
        check_additivity(rng, 200),
        check_ghz_growth(),  # strict monotonicity n=2..10
    ]
    ok = all(r.passed for r in results)
    _line(4, ok, "; ".join(r.line() for r in results))
    for r in results:
        assert r.passed, r.line()


def test_criterion_05_dp_vs_naive(corpus):
    worst = 0.0
    for _, rho in corpus:
        worst = max(worst, abs(ccm(rho).value - ccm_naive(rho)))
    rng = np.random.default_rng(555)
    for _ in range(50):
        rho = random_density(5, rng)
        worst = max(worst, abs(ccm(rho).value - ccm_naive(rho)))
    _line(5, worst <= 1e-9,
          f"max |dp - naive| over corpus + 50 five-qubit mixtures = {worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_06_xxz_sweep_features():
    config = SweepConfig(model="xxz", spins=6, param=ParamRange(-1.5, 1.5, 121),
                         include_tv=True)
    _, rows = sweep_rows(config)
    xs = np.array([r[0] for r in rows])
    cs = np.array([r[1] for r in rows])
    tvs = np.array([r[2] for r in rows])
    assert not np.any(np.abs(xs - 1.0) < 1e-9)  # crossing excluded from the grid

    jumps = np.abs(np.diff(cs))
    k = int(np.argmax(jumps))
    straddles = xs[k] < 1.0 < xs[k + 1]
    sharp = jumps[k] > 5.0 * float(np.median(jumps))

    nearest = int(np.argmin(np.abs(xs + 1.0)))
    local_max = [i for i in range(1, len(xs) - 1) if cs[i] > cs[i - 1] and cs[i] > cs[i + 1]]
    peak_near_minus_one = any(abs(i - nearest) <= 1 for i in local_max)

    tv_jumps = np.abs(np.diff(tvs))
    tv_k = int(np.argmax(tv_jumps))
    tv_straddles = xs[tv_k] < 1.0 < xs[tv_k + 1]
    tv_sharp = tv_jumps[tv_k] > 5.0 * float(np.median(tv_jumps))
    below = xs < 1.0
    tv_variation = float(tvs[below].max() - tvs[below].min())
    tv_flat = 10.0 * tv_variation <= tv_jumps[tv_k]
    tv_no_peak = not any(
        xs[i + 1] < 1.0 and tvs[i] - tvs[i - 1] > 1e-9 and tvs[i] - tvs[i + 1] > 1e-9
        for i in range(1, len(xs) - 1)
    )

    ok = all([straddles, sharp, peak_near_minus_one,
              tv_straddles, tv_sharp, tv_flat, tv_no_peak])
    _line(6, ok,
          f"ccm jump {jumps[k]:.3f} at ({xs[k]:.4g},{xs[k + 1]:.4g}) vs median "
          f"{np.median(jumps):.2e}; local max near -1: {peak_near_minus_one}; "
          f"tv jump {tv_jumps[tv_k]:.3f}, variation below crossing {tv_variation:.2e}")
    assert straddles and sharp
    assert peak_near_minus_one
    assert tv_straddles and tv_sharp
    assert tv_flat and tv_no_peak


def test_criterion_07_peak_grows_with_size():
    peaks = []
    for n in (4, 6, 8):
        grid = build_grid(-1.3, -0.7, 13)
        peaks.append(max(_ground_ccm(chain_terms(xxz_ring(n, float(d)))) for d in grid))
    increasing = peaks[0] < peaks[1] < peaks[2]
    _line(7, increasing,
          "peak near delta=-1 for N=4,6,8: " + ", ".join(f"{p:.4f}" for p in peaks))
    assert increasing


def test_criterion_08_double_chain_additivity():
    pairs = [(-0.5, -0.5), (-1.2, 0.3), (1.3, -0.5), (1.5, 1.2), (0.0, 0.5)]
    worst = 0.0
    for delta, lam in pairs:
        for v in (delta, lam):  # the lowest level is gapped away from the rest
            assert ground_gap(chain_terms(xxz_ring(3, v))) > 0.3
        joint = _ground_ccm(chain_terms(xxz_ring(3, delta), xxz_ring(3, lam)))
        split = _ground_ccm(chain_terms(xxz_ring(3, delta))) + _ground_ccm(chain_terms(xxz_ring(3, lam)))
        worst = max(worst, abs(joint - split))
    _line(8, worst <= 1e-6,
          f"max |joint - sum| over {len(pairs)} pairs = {worst:.3e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_09_ising_derivative_dip():
    config = SweepConfig(model="ising", spins=6, param=ParamRange(0.0, 2.0, 101),
                         derivative=True)
    _, rows = sweep_rows(config)
    xs = [r[0] for r in rows]
    dccm = [r[2] for r in rows]
    at = xs[int(np.argmin(dccm))]
    ok = abs(at - 1.0) <= 0.2
    _line(9, ok, f"dccm/dlambda minimal at lambda={at:.3f} (want within 0.2 of 1)")
    assert ok


def test_criterion_10_noise_monotonicity():
    deltas = (-1.2, -1.0, 0.0, 0.9)
    ps = (0.0, 0.01, 0.02, 0.03, 0.04)
    table = {}
    for d in deltas:
        state = ground_state(chain_terms(xxz_ring(4, d)))
        row = []
        for p in ps:
            noisy = apply_channel_local(state, phase_damping_channel(p), full_mask(4))
            row.append(ccm(noisy).value)
        table[d] = row
    monotone = all(
        row[i + 1] <= row[i] + 1e-7 for row in table.values() for i in range(len(ps) - 1)
    )
    # reported, not asserted: contrast of the delta=-1 value over the
    # ferromagnetic shoulder at delta=-1.2, per damping strength
    contrast = [table[-1.0][j] - table[-1.2][j] for j in range(len(ps))]
    _line(10, monotone,
          f"non-increasing in p at all 4 deltas: {monotone}; "
          f"value(-1) - value(-1.2) per p: " + ", ".join(f"{v:.4f}" for v in contrast))
    assert monotone


def test_criterion_11_entropy_kernel_checks():
    mi = check_mutual_info_vs_relative_entropy(np.random.default_rng(99), 100)
    ssa = check_strong_subadditivity(np.random.default_rng(99), 100)
    ok = mi.passed and ssa.passed
    _line(11, ok, f"{mi.line()}; {ssa.line()}")
    assert mi.passed, mi.line()
    assert ssa.passed, ssa.line()
