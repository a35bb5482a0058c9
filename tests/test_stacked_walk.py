"""Lists of states walked as one stack.

`subset_entropies_many` reads its states once and reduces each as it
arrives: a state without a factor has its root visited alone, and its
representative children wait with those of the earlier states that share a
register size, qubit group, form (popcount blocks or one block), dtype and
spin flip, to be walked as one stack with a leading axis over the states; a
state in popcount blocks whose group holds the ring's shift has the
entries its root's momentum blocks are made from wait with them, to be cut
with the stack's other roots.  A popcount block that is 0.0 in all of them
is skipped, and one that is 0.0 in some rows only (double rings) is solved
in every row.  Each table must be the one the state gets alone, bit for
bit, whatever the list mixes and however the stack budget splits it; `ccm_many` must give each state the
report `ccm` gives it, tree included, and `ccm_naive` checks the values for
n <= 6.  The noise sweep streams its whole grid through one `ccm_many`
call, and its output is recorded from the one-state walk.
"""

import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.entropy
import qcorr.sweeps
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
from qcorr.sweeps import ParamRange, SweepConfig, noise_sweep_rows

from dense_reference import block_state, one_block

NAIVE_TOL = 1e-9
DATA = pathlib.Path(__file__).resolve().parent / "data" / "noise"
KINDS = ("phase", "amplitude", "complex", "uniform-phase", "bit-flip", "random", "kept", "kept-blocks",
         "ghz", "factor", "double", "double-phase", "double-amplitude")


def bit_flip_channel(p):
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return KrausChannel((np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * x))


def make_state(kind, n, seed):
    """One state of `kind`: blocks (real or complex) or one block, with or
    without a kept spectrum, of the ring's group or the trivial or
    symmetric one, or a factor.  One qubit has no ring: its states are
    dense, kept, pure or a factor.  The double kinds are two XXZ rings of
    max(2, n // 2) spins side by side, with unequal delta, as a factor or
    damped: their popcount blocks are 0.0 where the two rings' sectors do
    not meet, which depends on the deltas, so their stacks hold 0.0 blocks
    in some rows and not in others."""
    rng = np.random.default_rng(seed)
    if kind.startswith("double"):
        spins, (delta, other), p = max(2, n // 2), rng.uniform(-2.0, 2.0, 2), rng.uniform(0.05, 0.95)
        ground = ground_state(chain_terms(xxz_ring(spins, delta), xxz_ring(spins, other)))
        if kind == "double":
            return ground
        channel = phase_damping_channel if kind == "double-phase" else amplitude_damping_channel
        return apply_channel_local(ground, channel(p), full_mask(2 * spins))
    if n == 1:
        if kind == "kept":
            return one_block(random_density(1, rng).matrix, check_psd=True)
        if kind == "ghz":
            return random_pure_state(1, rng)
        if kind == "factor":
            return random_pure_state(1, rng)
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
        return one_block(make_ghz(n).matrix)
    return ground


def assert_same_as_alone(states):
    alone = [subset_entropies(s) for s in states]
    for table, want in zip(subset_entropies_many(states), alone, strict=True):
        assert list(table) == list(want)  # bit for bit
        assert table.representatives is want.representatives  # the one kept array of the orbits
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
        if budget is not None:  # child entries that wait: 1 walks every state alone
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


@pytest.mark.parametrize("n", [4, 6])
def test_double_rings_stack_zero_blocks_in_some_rows(n, monkeypatch):
    # The deltas of each seed put the rings' ground states in different
    # sectors, so a popcount block of a damped stack (a row per state), and
    # of a factor stack's batch (a row per mask and state), is 0.0 in some
    # rows and not in others: those rows are solved with the rest, and each
    # table must still be its own.
    solve_nonzero = qcorr.entropy._Walk.solve_nonzero
    damped = [make_state("double-phase", n, seed) for seed in range(6)]
    factors = [make_state("double", n, seed) for seed in range(6)]
    for states in (damped, factors):
        mixed = []

        def record(self, matrices, *args):
            zero = ~matrices.reshape(len(matrices), -1).any(axis=1)
            mixed.append(0 < np.count_nonzero(zero) < len(zero))
            return solve_nonzero(self, matrices, *args)

        with monkeypatch.context() as mp:
            mp.setattr(qcorr.entropy._Walk, "solve_nonzero", record)
            subset_entropies_many(states)
        assert any(mixed)
    assert_same_as_alone(damped + factors)


def walks(monkeypatch):
    """The number of states of each stack walked below the roots, in the
    order the walks begin (a state walked alone is a stack of one)."""
    sizes = {}
    visit = qcorr.entropy._Walk.visit

    def record(self, stack, data, mask, m, *args, **kwargs):
        if 2 << m == len(stack.rep):  # a root's child
            sizes.setdefault(stack, len(data))
        return visit(self, stack, data, mask, m, *args, **kwargs)

    monkeypatch.setattr(qcorr.entropy._Walk, "visit", record)
    return sizes


def test_budget_splits_the_stack(monkeypatch):
    # Under D_6 a root's entries that its momentum blocks are made from
    # wait with its one representative child, of C(10, 5) = 252 entries:
    # 158 of them under phase damping, which keeps the spin flip (blocks
    # 0..3), and 218 under amplitude damping, which breaks it.  So the two
    # stack apart; at most STACK_ENTRIES entries wait in all, and a state
    # whose entries alone pass it walks alone.
    n = 6
    states = [make_state(kind, n, seed) for seed in range(3) for kind in ("phase", "amplitude")]
    assert len({s.blocks.size for s in states}) == 1
    for budget, want in ((None, [3, 3]), (2 * (410 + 470), [2, 2, 1, 1]), (409, [1] * 6)):
        with monkeypatch.context() as mp:
            if budget is not None:
                mp.setattr(qcorr.entropy, "STACK_ENTRIES", budget)
            sizes = walks(mp)
            subset_entropies_many(states)
        assert list(sizes.values()) == want
    assert_same_as_alone(states)


def test_state_past_the_budget_is_walked_depth_first():
    # A dense 9-qubit state with no symmetry has 9 children of 4^8 entries,
    # more than STACK_ENTRIES together: it is walked alone from its root,
    # one child at a time, never holding all of them (which would take
    # 9 MiB beside its 4 MiB matrix).
    state = random_density(9, np.random.default_rng(0))
    assert qcorr.entropy.qubit_symmetry(state) == () and state.matrix.dtype == complex
    tracemalloc.start()
    try:
        subset_entropies(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= state.matrix.nbytes


DIHEDRAL_6 = ((1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0))  # the shift and the reflection


def test_stacks_follow_the_key(monkeypatch):
    # Real and complex blocks of one group, blocks with and without the
    # spin flip, blocks and one block, D_6 and the trivial group, and a
    # factor never share a walk.
    kinds = ("phase", "amplitude", "complex", "uniform-phase", "bit-flip", "random", "factor", "phase",
             "uniform-phase")
    states = [make_state(kind, 6, 7) for kind in kinds]
    groups = [qcorr.entropy.qubit_symmetry(s) for s in states]
    assert groups == [DIHEDRAL_6] * 5 + [()] + [DIHEDRAL_6] * 3
    sizes = walks(monkeypatch)
    subset_entropies_many(states)
    # amplitude, bit flip, random; phase; complex blocks
    assert sorted(sizes.values()) == [1, 1, 1, 2, 3]
    assert_same_as_alone(states)


def test_representatives_are_kept_read_only():
    dihedral = ((*range(1, 8), 0), tuple(range(7, -1, -1)))
    reps = orbit_representatives(8, dihedral)
    assert reps is orbit_representatives(8, dihedral)
    with pytest.raises(ValueError):
        reps[1] = 0


def test_noise_sweep_walks_the_grid_once(monkeypatch, tmp_path):
    sizes = walks(monkeypatch)
    main(["noise", "--spins", "6", "--param-start", "-1.5", "--param-stop", "0.5", "--param-steps", "3",
          "--p-start", "0", "--p-stop", "0.8", "--p-steps", "5", "--out", str(tmp_path / "n.csv")])
    assert list(sizes.values()) == [12]  # p = 0 keeps the factor


def damped_grid(n, channel, deltas, ps):
    """The states of a noise sweep's grid, row by row: a fresh channel for
    each state, where `noise_sweep_rows` goes column by column with one
    channel per column (`test_noise_sweep_holds_one_column_and_one_channel`)."""
    for delta in deltas:
        ground = ground_state(chain_terms(xxz_ring(n, delta)))
        for p in ps:
            yield apply_channel_local(ground, channel(p), full_mask(n))


def watched(states, alive, counts):
    """`states`, counting the damped states still alive as each arrives."""
    for state in states:
        counts.append(len(alive))
        if state.factor is None:
            alive.add(state)
        yield state


@pytest.mark.parametrize("channel", [phase_damping_channel, amplitude_damping_channel])
def test_generator_holds_at_most_one_row(channel):
    deltas, ps = (-1.5, -0.5, 0.5, 1.5), (0.0, 0.2, 0.4, 0.6, 0.8)
    alive, counts = weakref.WeakSet(), []
    reports = ccm_many(watched(damped_grid(6, channel, deltas, ps), alive, counts))
    assert len(counts) == len(deltas) * len(ps)
    assert max(counts) <= len(ps) - 1  # the damped states of one row
    want = ccm_many(list(damped_grid(6, channel, deltas, ps)))
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in want]  # bit for bit


@pytest.mark.parametrize("channel", ["paper", "standard"])
def test_noise_sweep_holds_one_column_and_one_channel(channel, monkeypatch):
    # `noise_sweep_rows` holds every ground state (a factor) and damps them
    # column by column, so at most the damped states of one column and one
    # channel, with the scaling arrays it keeps, are alive at a time.
    deltas, ps = ParamRange(-1.5, 1.5, 4), ParamRange(0.0, 0.8, 5)
    alive, channels, counts, kept = weakref.WeakSet(), {}, [], []  # channels: id -> weak reference
    damp = qcorr.sweeps.apply_channel_local

    def watched_damp(state, channel, qubits):
        assert state.factor is not None  # a ground state
        channels[id(channel)] = weakref.ref(channel)
        counts.append((len(alive), sum(ref() is not None for ref in channels.values())))
        out = damp(state, channel, qubits)
        kept.append(len(channel._scales))
        if out.factor is None:
            alive.add(out)
        return out

    monkeypatch.setattr(qcorr.sweeps, "apply_channel_local", watched_damp)
    config = SweepConfig(model="xxz", spins=6, param=deltas, noise=ps, channel=channel)
    _, rows, _ = noise_sweep_rows(config)
    assert len(counts) == len(rows) == 4 * 5
    assert max(a for a, _ in counts) <= 4 - 1  # the damped states of one column
    assert max(c for _, c in counts) == 1
    assert max(kept) == 6  # one array per qubit, made for a column's first state


@pytest.mark.parametrize("channel", ["paper", "standard"])
def test_noise_sweep_n8_is_unchanged(channel, tmp_path, capsys):
    # Written by the one-state walk, before rows were stacked.
    out = tmp_path / "noise.csv"
    assert main(["noise", "--spins", "8", "--channel", channel, "--param-start", "-1.5",
                 "--param-stop", "0.5", "--param-steps", "7", "--p-start", "0", "--p-stop", "0.8",
                 "--p-steps", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"xxz_n8_{channel}.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / f"xxz_n8_{channel}.stdout").read_text()


@pytest.mark.parametrize("channel", ["paper", "standard"])
def test_noise_sweep_n10_is_unchanged(channel, tmp_path, capsys):
    # Written by the walk that took each N = 10 root alone, before the grid
    # was streamed and the spin flip split the blocks.
    out = tmp_path / "noise.csv"
    assert main(["noise", "--spins", "10", "--channel", channel, "--param-start", "-1.5",
                 "--param-stop", "0.5", "--param-steps", "5", "--p-start", "0", "--p-stop", "0.8",
                 "--p-steps", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"xxz_n10_{channel}.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / f"xxz_n10_{channel}.stdout").read_text()
