"""Low-rank mixed files certified at intake without a full eigensolve.

A pivoted Cholesky factor V of at most floor(sqrt(d)) columns stands for the
file's matrix m when S = m - V V^dagger has sqrt(d) ||S||_F <= SUPPORT_CUTOFF
and max |S| <= FACTOR_ATOL: then ||S||_1 <= SUPPORT_CUTOFF, and m is
positive up to that.  The kept spectrum is then that of V^dagger V, padded
with zeros.  Any other file takes the full eigensolve, as before.
"""

import math

import numpy as np
import pytest

import qcorr.entropy
import qcorr.states
from qcorr import DensityOperator, read_qs1, write_qs1
from qcorr.cli import main
from qcorr.sampling import random_density
from qcorr.states import FACTOR_ATOL, SUPPORT_CUTOFF


def low_rank(n, rank, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((1 << n, rank)) + 1j * rng.standard_normal((1 << n, rank))
    m = v @ v.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def write(tmp_path, matrix):
    path = tmp_path / "state.qs1"
    write_qs1(path, DensityOperator(matrix))
    return str(path)


@pytest.fixture
def solve_dims(monkeypatch):
    """Dimension of every eigensolve made through `states` and `entropy`."""
    dims = []
    for module in (qcorr.states, qcorr.entropy):
        solve = module.hermitian_eigenvalues

        def spy(m, solve=solve):
            dims.append(m.shape[0])
            return solve(m)

        monkeypatch.setattr(module, "hermitian_eigenvalues", spy)
    return dims


@pytest.mark.parametrize("command", ["ccm", "tv"])
def test_rank_two_file_is_never_diagonalized_whole(tmp_path, capsys, solve_dims, command):
    path = write(tmp_path, low_rank(8, 2, 5))
    assert main([command, path]) == 0
    capsys.readouterr()
    assert solve_dims and 256 not in solve_dims


@pytest.mark.parametrize("n, rank", [(3, 1), (4, 2), (6, 3), (8, 2), (8, 16)])
def test_certified_factor_and_spectrum(tmp_path, solve_dims, n, rank):
    m = low_rank(n, rank, n + rank)
    state = read_qs1(write(tmp_path, m))
    d = 1 << n
    assert d not in solve_dims
    v = state.factor
    assert v.shape == (d, rank)
    gap = state.matrix - v @ v.conj().T
    assert math.sqrt(d) * np.linalg.norm(gap) <= SUPPORT_CUTOFF
    assert np.abs(gap).max() <= FACTOR_ATOL
    assert state.spectrum.shape == (d,)
    assert np.all(np.diff(state.spectrum) >= 0)
    assert np.abs(state.spectrum - np.linalg.eigvalsh(state.matrix)).max() <= 1e-12


def test_full_rank_file_gives_up_and_takes_the_eigensolve(tmp_path, solve_dims):
    state = read_qs1(write(tmp_path, random_density(5, np.random.default_rng(2)).matrix))
    assert solve_dims == [32]
    assert state.factor is None and int((state.spectrum > SUPPORT_CUTOFF).sum()) == 32


def test_noise_above_the_trace_norm_budget_falls_through(tmp_path, solve_dims):
    # Entries of 5e-15 pass max |S| <= FACTOR_ATOL, but over 256 x 256 they
    # weigh sqrt(d) ||S||_F ~ 1e-11 in trace norm: the full eigensolve runs,
    # and its tail mass keeps the file dense.
    rng = np.random.default_rng(9)
    noise = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    m = low_rank(8, 2, 1) + 5e-15 * (noise + noise.conj().T) / 2
    m = 0.5 * (m + m.conj().T)
    state = read_qs1(write(tmp_path, m / np.trace(m).real))
    assert solve_dims == [256]
    assert state.factor is None
