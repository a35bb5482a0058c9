"""Mixed state files at intake: the low-rank factor or the kept spectrum.

`read_qs1` checks a mixed file's positivity once.  A matrix of low numerical
rank (r^2 <= 2^n) that intake's certificate accepts keeps a factor V with
V V^dagger equal to the matrix within 1e-13; any other is diagonalized and
keeps its spectrum.  A state holds exactly one of the two.  Whatever intake
decides, the table, the measure, its tree and the total correlations must
match those of the same matrix taken as a plain dense `DensityOperator`, and
the CLI's output on the recorded files in `data/intake` must not change.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.entropy
import qcorr.states
from qcorr import DensityOperator, ccm, multi_information, read_qs1, write_qs1
from qcorr.cli import main
from qcorr.entropy import SUPPORT_CUTOFF, subset_entropies
from qcorr.errors import ParseError
from qcorr.sampling import haar_unitary, random_density

from dense_reference import one_block

VALUE_TOL = 1e-10
ROUNDOFF_BITS = 1e-13  # as in test_factored.py: trees are compared below this gap
DATA = pathlib.Path(__file__).resolve().parent / "data" / "intake"


def low_rank_matrix(n, rank, rng, noise=0.0):
    """V V^dagger for a Gaussian 2^n x rank V, plus Hermitian noise of entry
    size `noise`, normalized to unit trace and exactly Hermitian in storage."""
    d = 1 << n
    v = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = v @ v.conj().T
    m = m / np.trace(m).real
    if noise:
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = m + noise * (h + h.conj().T) / 2
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def with_spectrum(n, eigenvalues, rng):
    """U diag(eigenvalues) U^dagger for a Haar-random U."""
    u = haar_unitary(1 << n, rng)
    m = (u * np.asarray(eigenvalues)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def through_file(tmp_path, matrix):
    path = tmp_path / "state.qs1"
    write_qs1(path, DensityOperator(matrix))
    state = read_qs1(path)
    assert (state.factor is None) != (state.spectrum is None)
    return str(path), state


def tree_shape(node):
    """(subset, mask_a, left, right) of a report tree, as a node or its JSON dict."""
    if node is None:
        return None
    if isinstance(node, dict):
        return (node["subset"], node["mask_a"], tree_shape(node["left"]), tree_shape(node["right"]))
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def assert_matches_dense(state, report_tree=None):
    """Table, ccm, tree and multi-information of `state` against a dense copy."""
    dense = one_block(state.matrix)
    assert dense.factor is None and dense.spectrum is None
    table, ref = subset_entropies(state), subset_entropies(dense)
    gap = max(abs(a - b) for a, b in zip(table, ref))
    assert gap <= VALUE_TOL
    report, dense_report = ccm(state), ccm(dense)
    assert report.value == pytest.approx(dense_report.value, abs=VALUE_TOL)
    assert multi_information(state) == pytest.approx(multi_information(dense), abs=VALUE_TOL)
    if gap <= ROUNDOFF_BITS:
        assert tree_shape(report.tree) == tree_shape(dense_report.tree)
        if report_tree is not None:
            assert tree_shape(report_tree) == tree_shape(dense_report.tree)


def largest_factored_rank(n):
    return math.isqrt(1 << n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("which", ["one", "two", "largest"])
def test_low_rank_files_get_a_factor(tmp_path, capsys, n, which):
    rank = {"one": 1, "two": 2, "largest": largest_factored_rank(n)}[which]
    m = low_rank_matrix(n, rank, np.random.default_rng([n, rank]))
    path, state = through_file(tmp_path, m)
    assert state.factor is not None and state.factor.shape == (1 << n, rank)
    assert np.array_equal(state.matrix, m)  # the file's matrix, not V V^dagger
    assert np.abs(state.factor @ state.factor.conj().T - m).max() <= qcorr.states.FACTOR_ATOL
    assert state.spectrum is None
    assert main(["ccm", path, "--report"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert_matches_dense(state, report["tree"])


def test_a_rank_one_file_takes_the_complement_rule(tmp_path):
    _, state = through_file(tmp_path, low_rank_matrix(5, 1, np.random.default_rng(3)))
    table = subset_entropies(state)
    assert table[-1] == 0.0
    assert all(table[m] == table[31 ^ m] for m in range(1, 31))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rank_above_the_rule_stays_dense(tmp_path, n):
    rank = largest_factored_rank(n) + 1
    _, state = through_file(tmp_path, low_rank_matrix(n, rank, np.random.default_rng(n)))
    assert state.factor is None and state.spectrum is not None
    assert_matches_dense(state)


def test_full_rank_file_stays_dense(tmp_path):
    _, state = through_file(tmp_path, random_density(4, np.random.default_rng(8)).matrix)
    assert state.factor is None
    assert int((state.spectrum > SUPPORT_CUTOFF).sum()) == 16
    assert_matches_dense(state)


@pytest.mark.parametrize("tail", [5e-13, -5e-10])
def test_tail_mass_above_the_cutoff_stays_dense(tmp_path, tail):
    # Two eigenvalues carry the state; 60 more of size |tail| each sit at or
    # below SUPPORT_CUTOFF (a tolerated negative one too), but together they
    # weigh more than it, so no factor may stand in for the matrix.
    rng = np.random.default_rng(11)
    eigenvalues = np.zeros(64)
    eigenvalues[2:62] = tail
    eigenvalues[:2] = [0.7, 0.3 - 60 * tail]
    _, state = through_file(tmp_path, with_spectrum(6, eigenvalues, rng))
    assert int((state.spectrum > SUPPORT_CUTOFF).sum()) == 2
    assert state.factor is None
    assert_matches_dense(state)


def test_non_psd_low_rank_file_is_rejected(tmp_path):
    eigenvalues = np.zeros(16)
    eigenvalues[:3] = [0.7, 0.3 + 1e-6, -1e-6]
    path = tmp_path / "bad.qs1"
    write_qs1(path, DensityOperator(with_spectrum(4, eigenvalues, np.random.default_rng(2))))
    with pytest.raises(ParseError, match=r"^state file violates state invariants: "
                                         r"minimum eigenvalue -[0-9.e-]+ below -1e-09$"):
        read_qs1(path)


def test_only_the_checked_constructor_keeps_a_spectrum():
    m = low_rank_matrix(3, 2, np.random.default_rng(4))
    unchecked = DensityOperator(m)
    assert unchecked.factor is None and unchecked.spectrum is None
    checked = DensityOperator(m, check_psd=True)
    assert checked.factor is not None and checked.spectrum is None
    from_factor = DensityOperator.from_factor(checked.factor)
    assert from_factor.spectrum is None
    full = DensityOperator(random_density(3, np.random.default_rng(4)).matrix, check_psd=True)
    assert full.factor is None and full.spectrum is not None


@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data(),
       noise=st.one_of(st.just(0.0), st.floats(1e-18, 1e-16)))
@settings(deadline=None, max_examples=40)
def test_low_rank_plus_roundoff_ensembles(tmp_path_factory, n, seed, data, noise):
    rank = data.draw(st.integers(1, largest_factored_rank(n)), label="rank")
    m = low_rank_matrix(n, rank, np.random.default_rng(seed), noise)
    _, state = through_file(tmp_path_factory.mktemp("intake"), m)
    assert state.factor is not None and state.factor.shape[1] == rank
    assert_matches_dense(state)


@pytest.mark.parametrize("command", ["ccm", "tv"])
def test_full_rank_file_is_diagonalized_once(tmp_path, capsys, monkeypatch, command):
    dims = []

    def spy(fn):
        def wrapper(m):
            dims.append(m.shape[0])
            return fn(m)
        return wrapper

    for module in (qcorr.states, qcorr.entropy):
        monkeypatch.setattr(module, "hermitian_eigenvalues", spy(module.hermitian_eigenvalues))
    path, _ = through_file(tmp_path, random_density(8, np.random.default_rng(6)).matrix)
    dims.clear()
    assert main([command, path]) == 0
    capsys.readouterr()
    assert dims.count(256) == 1
    assert max(dims) == 256


@pytest.mark.parametrize("name, form", [("rank2_n5", "factor"), ("full_n5", "spectrum")])
@pytest.mark.parametrize("command, options, suffix", [("ccm", ["--report"], "ccm-report"), ("tv", [], "tv")],
                         ids=["ccm-report", "tv"])
def test_mixed_file_output_is_unchanged(capsys, name, form, command, options, suffix):
    path = str(DATA / f"{name}.qs1")
    state = read_qs1(path)
    assert {"factor": state.factor, "spectrum": state.spectrum}[form] is not None
    assert main([command, path, *options]) == 0
    assert capsys.readouterr().out.encode() == (DATA / f"{name}.{suffix}.stdout").read_bytes()
