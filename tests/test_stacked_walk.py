"""Lists of states walked as one stack.

`subset_entropies_many` walks the states without a factor that share a
register size, qubit group, form (popcount blocks or one block), dtype and
kept spectrum or none as one stack, with a leading axis over the states,
and skips every popcount block that is 0.0 in all of them.  Each table must
be the one the state gets alone, bit for bit, whatever the list mixes and
however the stack budget splits it; `ccm_many` must give each state the
report `ccm` gives it, tree included, and `ccm_naive` checks the values for
n <= 6.  The noise sweep walks each row's damped states as one stack, and
its output is recorded from the one-state walk.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.entropy
from qcorr import (
    KrausChannel,
    amplitude_damping_channel,
    apply_channel_local,
    apply_local_unitary,
    ccm,
    ccm_many,
    ccm_naive,
    chain_terms,
    full_mask,
    ground_state,
    make_ghz,
    phase_damping_channel,
    xxz_ring,
)
from qcorr.cli import main
from qcorr.entropy import orbit_representatives, subset_entropies, subset_entropies_many
from qcorr.sampling import random_density, random_pure_state

from dense_reference import block_state, one_block

NAIVE_TOL = 1e-9
DATA = pathlib.Path(__file__).resolve().parent / "data" / "noise"
KINDS = ("phase", "amplitude", "complex", "uniform-phase", "bit-flip", "random", "kept", "kept-blocks",
         "ghz", "factor")


def bit_flip_channel(p):
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return KrausChannel((np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * x))


def make_state(kind, n, seed):
    """One state of `kind`: blocks (real or complex) or one block, with or
    without a kept spectrum, of the ring's group or the trivial or
    symmetric one, or a factor.  One qubit has no ring: its states are
    dense, kept, pure or a factor."""
    rng = np.random.default_rng(seed)
    if n == 1:
        if kind == "kept":
            return one_block(random_density(1, rng).matrix, check_psd=True)
        if kind == "ghz":
            return random_pure_state(1, rng)
        if kind == "factor":
            return random_pure_state(1, rng).to_density()
        return random_density(1, rng)
    delta, p = rng.uniform(-2.0, 2.0), rng.uniform(0.05, 0.95)
    ground = ground_state(chain_terms(xxz_ring(n, delta)))
    if kind in ("phase", "complex", "uniform-phase", "kept-blocks"):
        state = apply_channel_local(ground, phase_damping_channel(p), full_mask(n))
        if kind in ("complex", "uniform-phase"):
            # Random phases break the ring's symmetry; one phase on every
            # qubit keeps it, and the blocks' values, but not the dtype.
            phis = rng.uniform(0, 2 * np.pi, 1 if kind == "uniform-phase" else n).repeat(n)[:n]
            state = apply_local_unitary(state, [np.diag([1.0, np.exp(1j * phi)]) for phi in phis])
        if kind == "kept-blocks":
            state = block_state(state.matrix, check_psd=True)
        return state
    if kind == "amplitude":
        return apply_channel_local(ground, amplitude_damping_channel(p), full_mask(n))
    if kind == "bit-flip":
        return apply_channel_local(ground, bit_flip_channel(p), full_mask(n))
    if kind == "random":
        return random_density(n, rng)
    if kind == "kept":
        return one_block(random_density(n, rng).matrix, check_psd=True)
    if kind == "ghz":
        return one_block(make_ghz(n).to_density().matrix)
    return ground


def assert_same_as_alone(states):
    alone = [subset_entropies(s) for s in states]
    for table, want in zip(subset_entropies_many(states), alone, strict=True):
        assert list(table) == list(want)  # bit for bit
        assert table.representatives == want.representatives
    reports = ccm_many(states)
    for state, report in zip(states, reports, strict=True):
        assert report.to_dict() == ccm(state).to_dict()  # tree included
    return reports


@st.composite
def state_lists(draw):
    """Mostly one register size, so that stacks form; some rows mix in a
    size one larger, or one qubit."""
    n = draw(st.integers(2, 4))
    kinds = st.sampled_from(KINDS + ("phase", "amplitude") * 2)  # damped rings stack most
    specs = st.tuples(kinds, st.sampled_from([n, n, n, n + 1, 1]), st.integers(0, 2**16))
    return [make_state(*spec) for spec in draw(st.lists(specs, min_size=1, max_size=6))]


@given(states=state_lists(), budget=st.sampled_from([None, 1, 40, 200, 1000]))
@settings(deadline=None, max_examples=40)
def test_stacked_tables_are_the_tables_alone(states, budget):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:  # root entries per stack: 1 splits every stack
            mp.setattr(qcorr.entropy, "STACK_ENTRIES", budget)
        reports = assert_same_as_alone(states)
    for state, report in zip(states, reports):
        assert report.value == pytest.approx(ccm_naive(state), abs=NAIVE_TOL)


@pytest.mark.parametrize("seed", range(2))
def test_mixed_list_n6(seed):
    states = [make_state(kind, 6, seed + i) for i, kind in enumerate(KINDS)]
    states += [make_state("phase", 6, 10 + seed), make_state("amplitude", 5, 20 + seed),
               make_state("kept", 6, 30 + seed)]  # stacks with the other kept spectrum
    reports = assert_same_as_alone(states)
    for state, report in zip(states, reports):
        assert report.value == pytest.approx(ccm_naive(state), abs=NAIVE_TOL)


def walks(monkeypatch):
    """The number of states of each `_walk_tree` call."""
    sizes = []
    walk = qcorr.entropy._walk_tree

    def record(states, *args):
        sizes.append(len(states))
        return walk(states, *args)

    monkeypatch.setattr(qcorr.entropy, "_walk_tree", record)
    return sizes


def test_budget_splits_the_stack(monkeypatch):
    n = 6
    states = [make_state(kind, n, seed) for seed in range(3) for kind in ("phase", "amplitude")]
    assert len({s.blocks.size for s in states}) == 1  # C(12, 6) = 924 entries each
    sizes = walks(monkeypatch)
    subset_entropies_many(states)
    monkeypatch.setattr(qcorr.entropy, "STACK_ENTRIES", 2 * 924)
    subset_entropies_many(states)
    assert sizes == [6, 2, 2, 2]
    assert_same_as_alone(states)


DIHEDRAL_6 = ((1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0))  # the shift and the reflection


def test_stacks_follow_the_key(monkeypatch):
    # Real and complex blocks of one group, blocks and one block, D_6 and
    # the trivial group, and a factor never share a walk.
    kinds = ("phase", "amplitude", "complex", "uniform-phase", "bit-flip", "random", "factor", "phase",
             "uniform-phase")
    states = [make_state(kind, 6, 7) for kind in kinds]
    groups = [qcorr.entropy.qubit_symmetry(s) for s in states]
    assert groups == [DIHEDRAL_6] * 5 + [()] + [DIHEDRAL_6] * 3
    sizes = walks(monkeypatch)
    subset_entropies_many(states)
    assert sorted(sizes) == [1, 1, 3, 3]  # bit flip, random, real blocks, complex blocks
    assert_same_as_alone(states)


def test_representatives_are_kept_read_only():
    dihedral = ((*range(1, 8), 0), tuple(range(7, -1, -1)))
    reps = orbit_representatives(8, dihedral)
    assert reps is orbit_representatives(8, dihedral)
    with pytest.raises(ValueError):
        reps[1] = 0


def test_noise_sweep_walks_each_row_once(monkeypatch, tmp_path):
    sizes = walks(monkeypatch)
    main(["noise", "--spins", "6", "--param-start", "-1.5", "--param-stop", "0.5", "--param-steps", "3",
          "--p-start", "0", "--p-stop", "0.8", "--p-steps", "5", "--out", str(tmp_path / "n.csv")])
    assert sizes == [4, 4, 4]  # p = 0 keeps the factor


@pytest.mark.parametrize("channel", ["paper", "standard"])
def test_noise_sweep_n8_is_unchanged(channel, tmp_path, capsys):
    # Written by the one-state walk, before rows were stacked.
    out = tmp_path / "noise.csv"
    assert main(["noise", "--spins", "8", "--channel", channel, "--param-start", "-1.5",
                 "--param-stop", "0.5", "--param-steps", "7", "--p-start", "0", "--p-stop", "0.8",
                 "--p-steps", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"xxz_n8_{channel}.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / f"xxz_n8_{channel}.stdout").read_text()
