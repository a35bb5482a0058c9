"""Low-rank mixed files certified at intake without a full eigensolve.

A pivoted Cholesky factor V of at most floor(sqrt(d)) columns stands for the
file's matrix m when S = m - V V^dagger has sqrt(d) ||S||_F <= SUPPORT_CUTOFF
and max |S| <= FACTOR_ATOL: then ||S||_1 <= SUPPORT_CUTOFF, and m is
positive up to that.  The state keeps V and no spectrum.  Any other file
takes the full eigensolve and keeps its spectrum and no factor, files in the
band of low numerical rank whose noise fails the certificate too: their
values stay within 1e-10 of those of the noiseless factor.
"""

import math

import numpy as np
import pytest

import qcorr.entropy
import qcorr.states
from qcorr import DensityOperator, ccm, read_qs1, write_qs1
from qcorr.cli import main
from qcorr.sampling import random_density
from qcorr.states import FACTOR_ATOL, SUPPORT_CUTOFF


def gaussian_factor(n, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((1 << n, rank)) + 1j * rng.standard_normal((1 << n, rank))


def low_rank(n, rank, seed):
    v = gaussian_factor(n, rank, seed)
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
    assert state.spectrum is None
    gram = np.linalg.eigvalsh(v.conj().T @ v)
    padded = np.sort(np.concatenate([np.zeros(d - rank), gram]))
    assert np.abs(padded - np.linalg.eigvalsh(state.matrix)).max() <= 1e-12


def test_full_rank_file_gives_up_and_takes_the_eigensolve(tmp_path, solve_dims):
    state = read_qs1(write(tmp_path, random_density(5, np.random.default_rng(2)).matrix))
    assert solve_dims == [32]
    assert state.factor is None and int((state.spectrum > SUPPORT_CUTOFF).sum()) == 32


def test_noise_above_the_trace_norm_budget_falls_through(tmp_path, solve_dims):
    # Entries of 5e-15 pass max |S| <= FACTOR_ATOL, but over 256 x 256 they
    # weigh sqrt(d) ||S||_F ~ 1e-11 in trace norm: the full eigensolve runs
    # and the file stays dense.
    rng = np.random.default_rng(9)
    noise = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    m = low_rank(8, 2, 1) + 5e-15 * (noise + noise.conj().T) / 2
    m = 0.5 * (m + m.conj().T)
    state = read_qs1(write(tmp_path, m / np.trace(m).real))
    assert solve_dims == [256]
    assert state.factor is None


# --- the band between the certificate and low numerical rank -------------------


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def rank_one_noise(n, seed, weight):
    """weight * w w^dagger for a random unit w with |w_i|^2 = 2^-n: Hermitian
    noise of trace `weight` and entries weight / 2^n."""
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(1 << n))
    w = phases / math.sqrt(1 << n)
    return weight * np.outer(w, w.conj())


@pytest.mark.parametrize("n", range(4, 11))
def test_band_file_takes_the_eigensolve(tmp_path, n):
    # Noise of trace 3e-13 (entries 2e-14 at n = 4, 3e-16 at n = 10) fails
    # the certificate, whose bound sqrt(d) ||S||_F comes out at 1.6e-12 or
    # more, though the matrix is within 1e-12 of rank `rank` in trace norm:
    # the file stays dense.  Files up to n = 8 go through write and read;
    # the larger ones take the same intake, `check_psd`, in memory.
    rank = 2 + n % 2
    m = low_rank(n, rank, n) + rank_one_noise(n, n + 7, 3e-13)
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    state = read_qs1(write(tmp_path, m)) if n <= 8 else DensityOperator(m, check_psd=True)
    assert state.factor is None and state.spectrum is not None
    assert int((state.spectrum > SUPPORT_CUTOFF).sum()) == rank
    v = gaussian_factor(n, rank, n)
    dense, clean = ccm(state), ccm(DensityOperator.from_factor(v / np.linalg.norm(v)))
    assert dense.value == pytest.approx(clean.value, abs=1e-10)
    # The noise moves subset entropies by up to 7e-13 bits, far below the
    # gaps between the cuts of these states.
    assert tree_shape(dense.tree) == tree_shape(clean.tree)
