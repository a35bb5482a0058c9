"""Dense matrices, and the states and terms made from them: the tests'
reference for the forms the library takes.

The library takes a Hamiltonian as `HamiltonianTerms` only, and a state has
popcount blocks only when they come from a sector-aligned factor or from a
channel that keeps popcounts apart.  These helpers build dense chain
Hamiltonians from `chain_terms`, terms from any dense matrix, and the block
or one-block state of a dense density matrix, asserting the form they make;
the pieces that a popcount block of a reduced ring state splits into
under the spin flip and the ring reflections that fix its qubits, from
projectors onto their joint eigenspaces; and the momentum blocks of a
shift-invariant root, from brute-force orbits and explicit basis vectors.
"""

import itertools
import math
from collections import Counter

import numpy as np

from qcorr import DensityOperator, HamiltonianTerms, chain_terms, ising_ring, xxz_ring
from qcorr.entropy import REFLECTED_WIDTH, orbit_representatives, qubit_symmetry
from qcorr.states import BLOCK_ENTRIES, SUPPORT_CUTOFF, block_layout, partial_trace

# --- Hamiltonians -------------------------------------------------------------


def dense(terms):
    """The dim x dim matrix of `terms`, scattered into zeros."""
    matrix = np.zeros((terms.dim, terms.dim), dtype=terms.values.dtype)
    matrix[terms.rows, terms.cols] = terms.values
    return matrix


def terms_of(matrix):
    """The nonzero entries of a dense square matrix, in row-major order."""
    h = np.asarray(matrix)
    h = h.astype(complex if np.iscomplexobj(h) else float, copy=False)
    assert h.ndim == 2 and h.shape[0] == h.shape[1]
    rows, cols = np.nonzero(h)
    return HamiltonianTerms(h.shape[0], rows, cols, h[rows, cols])


def build_hamiltonian(spec):
    return dense(chain_terms(spec))


def build_xxz(num_spins, delta):
    return dense(chain_terms(xxz_ring(num_spins, delta)))


def build_ising(num_spins, lam):
    return dense(chain_terms(ising_ring(num_spins, lam)))


def build_double_xxz(spins_per_chain, delta, lam):
    """H(delta) x I + I x H(lam), the delta ring on the more significant qubits."""
    return dense(chain_terms(xxz_ring(spins_per_chain, delta), xxz_ring(spins_per_chain, lam)))


# --- density operators --------------------------------------------------------


def popcounts(num_qubits):
    return np.array([bin(i).count("1") for i in range(1 << num_qubits)])


def holds_popcount(matrix):
    """Whether every entry of `matrix` between basis states of different
    popcount is exactly 0.0 (a negative zero is a zero)."""
    weight = popcounts(matrix.shape[0].bit_length() - 1)
    return not np.asarray(matrix)[weight[:, None] != weight[None, :]].any()


def one_block(matrix, *, check_psd=False):
    """The state of a dense density matrix, as the public constructor makes
    it: the one-block case."""
    state = DensityOperator(matrix, check_psd=check_psd)
    assert state.blocks is None
    return state


def block_state(matrix, *, check_psd=False):
    """The state of a dense density matrix that holds popcounts apart, in
    popcount-block form.  The matrix passes the public constructor's checks
    first; with `check_psd` the state keeps the spectrum, and any low-rank
    factor, that they find."""
    checked = DensityOperator(matrix, check_psd=check_psd)
    m = checked.matrix
    assert holds_popcount(m)
    n = checked.num_qubits
    blocks = np.concatenate([m[np.ix_(idx, idx)].reshape(-1) for idx in block_layout(n).sectors])
    state = DensityOperator._trusted(n, matrix=m, blocks=blocks)
    state.factor, state.spectrum = checked.factor, checked.spectrum
    assert state.blocks is not None
    return state


# --- symmetry pieces of a reduced state's popcount blocks ----------------------


def ring_reflections(n, mask):
    """The reflections q -> (j - q) mod n of the n-qubit ring that map the
    qubits of `mask` onto themselves and move one of them, each as the
    permutation it makes of the basis states of those qubits (the lowest
    qubit is the most significant bit), without repeats."""
    qubits = [q for q in range(n) if (mask >> q) & 1]
    m = len(qubits)
    found = []
    for j in range(n):
        image = [(j - q) % n for q in qubits]
        if sorted(image) != qubits or image == qubits:
            continue
        where = [qubits.index(p) for p in image]  # qubit i's bit goes to qubit where[i]
        perm = [sum(((b >> (m - 1 - i)) & 1) << (m - 1 - where[i]) for i in range(m)) for b in range(1 << m)]
        if perm not in found:
            found.append(perm)
    return [np.array(p) for p in found]


def flip_permutation(m):
    """X on every one of m qubits, as a basis permutation."""
    return (1 << m) - 1 - np.arange(1 << m)


def symmetry_pieces(block, idx, involutions):
    """`block`, the matrix over the basis states `idx`, on each joint
    eigenspace of the commuting basis permutations `involutions` (each
    mapping `idx` onto itself): U^dagger block U for an orthonormal basis U
    of the range of each projector (1/|G|) sum_g chi(g) g of the group G they
    generate, one per sign pattern chi of the generators."""
    place = {int(b): i for i, b in enumerate(idx)}
    mats = []
    for perm in involutions:
        g = np.zeros((idx.size, idx.size))
        for i, b in enumerate(idx):
            g[place[int(perm[b])], i] = 1.0
        mats.append(g)
    pieces = []
    for signs in itertools.product((1.0, -1.0), repeat=len(mats)):
        projector = np.eye(idx.size)
        for s, g in zip(signs, mats):
            projector = projector @ (np.eye(idx.size) + s * g) / 2
        vals, vecs = np.linalg.eigh(projector)
        u = vecs[:, vals > 0.5]
        if u.shape[1]:
            pieces.append(u.T @ block @ u)
    return pieces


def split_block(block, idx, m, reflections, flip):
    """The pieces whose spectra make `block`'s (the popcount block of an
    m-qubit node over its basis states `idx`): with the spin flip when
    `flip`, and, when the block is at least REFLECTED_WIDTH wide, with the
    one of `reflections` (`ring_reflections`) whose pieces cost least, sum
    of size^3, the first one on a tie, if it costs less than none."""
    base = [flip_permutation(m)] if flip else []
    best = symmetry_pieces(block, idx, base)
    for perm in reflections if idx.size >= REFLECTED_WIDTH else []:
        pieces = symmetry_pieces(block, idx, base + [perm])
        if sum(p.shape[0] ** 3 for p in pieces) < sum(p.shape[0] ** 3 for p in best):
            best = pieces
    return best


def dihedral(n):
    """The generators of D_n that `qubit_symmetry` returns."""
    return ((*range(1, n), 0), tuple(range(n - 1, -1, -1)))


def model_solves(state, flip, momenta=True):
    """(solved, every, calls): the matrices larger than 1 x 1 that a dense
    model of the walk diagonalizes in one `ccm` of `state`, a ring state in
    block form, and all its popcount blocks larger than 1 x 1, as Counters
    by size, and the stacked eigensolves that takes: one per size and
    realness.  The orbit representatives are those of
    `qubit_symmetry(state)`, and each one's reduced state comes from the
    dense partial trace (`block_solves`); with `momenta`, the root of a
    state whose group holds the ring's shift is cut into momentum blocks
    instead (`root_solves`)."""
    n = state.num_qubits
    generators = qubit_symmetry(state)
    solved, every = Counter(), Counter()
    for mask in set(orbit_representatives(n, generators).tolist()) - {0}:
        reduced = partial_trace(state, mask).matrix
        if momenta and mask == (1 << n) - 1 and generators and generators[0] == dihedral(n)[0]:
            root_solves(reduced, flip, solved, every)
            continue
        block_solves([reduced], ring_reflections(n, mask) if holds_reflections(n, generators) else [], flip,
                     solved, every)
    return solved_sizes(solved), every, len(solved)


def solved_sizes(solved):
    """The Counter by size of the matrices that `solved` counts by (size, real)."""
    out = Counter()
    for (c, _), count in solved.items():
        out[c] += count
    return out


def holds_reflections(n, generators):
    """Whether the group of `generators` holds the n-qubit ring's reflections: D_n or S_n."""
    return len(generators) == 2 and generators[0] == dihedral(n)[0]


def block_solves(batch, reflections, flip, solved, every):
    """Count into the Counters `solved` (by size and realness) and `every`
    (by size) the matrices that the walk diagonalizes for the nodes whose
    blocks it stacks together, `batch` (m-qubit density matrices that hold
    popcounts apart: one node, or the masks of one batch of a factor's
    walk), and their popcount blocks larger than 1 x 1.  A block that is
    exactly 0.0 in every node of the batch is skipped, and so, with `flip`,
    is block k > m/2 (block m - k's spectrum serves it); any other is split
    by `split_block`: the flip on the middle block when `flip`, and the
    cheapest of `reflections` (`ring_reflections`).  A block that is not
    split is solved whole, in every node; a piece of a split, of the
    block's realness, in every node, if it is larger than 1 x 1 and the
    real or imaginary part of one of its entries, in one node, passes
    SUPPORT_CUTOFF / (sqrt(2) size), so that it may have an eigenvalue
    above SUPPORT_CUTOFF.  Whole blocks and pieces of one size and
    realness share one call."""
    m = batch[0].shape[0].bit_length() - 1
    real = not np.iscomplexobj(batch[0])
    for k, idx in enumerate(block_layout(m).sectors):
        c = idx.size
        if c == 1:
            continue
        every[c] += len(batch)
        blocks = [reduced[np.ix_(idx, idx)] for reduced in batch]
        if not any(block.any() for block in blocks) or (flip and 2 * k > m):
            continue
        splits = [split_block(block, idx, m, reflections, flip and 2 * k == m) for block in blocks]
        if len(splits[0]) == 1:
            solved[c, real] += len(batch)
            continue
        for pieces in zip(*splits):  # a piece of every node of the batch
            size = pieces[0].shape[0]
            largest = max(np.abs(np.concatenate([p.real, p.imag])).max() for p in pieces)
            if size > 1 and math.sqrt(2) * size * largest > SUPPORT_CUTOFF:
                solved[size, real] += len(batch)


def ring_shift(s, n):
    """The cyclic shift of n qubits on basis index s: qubit i to qubit i + 1,
    qubit 0 being the most significant bit."""
    return (s >> 1) | ((s & 1) << (n - 1))


def momentum_pieces(block, idx, n, real):
    """(m, U^dagger block U) for each momentum k = 2 pi m / n of `block`,
    the matrix over the basis states `idx` of one popcount sector of n
    qubits: U's columns are the vectors p^{-1/2} sum_{l < p} e^{-ikl} T^l |r>
    of the orbits of the shift T on `idx` (r the smallest state of its
    orbit, p the orbit's size, found by stepping T) with m p = 0 mod n.  Real
    blocks take m = 0 .. n // 2 (the piece of -m is the conjugate of that of
    m), complex ones m = 0 .. n - 1."""
    place = {int(b): i for i, b in enumerate(idx)}
    orbits = {}
    for b in place:
        orbit = [b]
        while ring_shift(orbit[-1], n) != b:
            orbit.append(ring_shift(orbit[-1], n))
        orbits.setdefault(min(orbit), len(orbit))
    out = []
    for m in range(n // 2 + 1 if real else n):
        columns = []
        for r, p in sorted(orbits.items()):
            if m * p % n:
                continue
            v = np.zeros(idx.size, dtype=complex)
            state = r
            for step in range(p):
                v[place[state]] = np.exp(-2j * np.pi * m * step / n) / math.sqrt(p)
                state = ring_shift(state, n)
            columns.append(v)
        if columns:
            u = np.array(columns).T
            out.append((m, u.conj().T @ block @ u))
    return out


def root_solves(reduced, flip, solved, every):
    """Count into `solved` (by size and realness) and `every` (by size) the
    matrices that the walk diagonalizes for the root `reduced` of an n-qubit
    state that the ring's shift leaves unchanged, and its popcount blocks
    larger than 1 x 1.  A block that is exactly 0.0 is skipped, and so,
    with `flip`, is block k > n/2; every other one is cut into its
    momentum pieces (`momentum_pieces`), each solved whole if it is larger
    than 1 x 1 and not 0.0: real for m = 0 and n/2 of a real block, complex
    for the others."""
    n = reduced.shape[0].bit_length() - 1
    real = not np.iscomplexobj(reduced)
    for k, idx in enumerate(block_layout(n).sectors):
        if idx.size == 1:
            continue
        every[idx.size] += 1
        block = reduced[np.ix_(idx, idx)]
        if not block.any() or (flip and 2 * k > n):
            continue
        for m, piece in momentum_pieces(block, idx, n, real):
            if piece.shape[0] > 1 and np.abs(piece).max() > 0.0:
                solved[piece.shape[0], real and 2 * m % n == 0] += 1


def dense_flips(state):
    """Whether X on every qubit moves the dense matrix of `state` by at
    most SUPPORT_CUTOFF in trace norm."""
    m = state.matrix
    flip = flip_permutation(state.num_qubits)
    return float(np.abs(np.linalg.eigvalsh(m[np.ix_(flip, flip)] - m)).sum()) <= SUPPORT_CUTOFF


def column_sectors(v):
    """The popcount of the nonzero rows of each column of the factor `v`,
    or None if a column has two."""
    weight = popcounts(v.shape[0].bit_length() - 1)
    found = [set(weight[column != 0].tolist()) for column in v.T]
    return None if any(len(f) > 1 for f in found) else [f.pop() if f else None for f in found]


def model_factor_solves(state):
    """(solved, calls): the matrices larger than 1 x 1 that a dense model of
    the walk diagonalizes in one `ccm` of `state`, which has a factor V
    (2^n x r), as a Counter by size, and the stacked eigensolves that takes:
    one per size and realness.

    The orbit representatives are those of `qubit_symmetry(state)`; with
    r = 1, a representative A whose complement's representative is smaller
    copies that entry and is skipped.  When 2^|A| <= 2^(n-|A|) r and each
    column of V lies in one popcount sector, A's reduced state from the
    dense partial trace is split as `block_solves` does, with the flip when
    `dense_flips`, in a batch with the other representatives of its size
    and, when its widest block is REFLECTED_WIDTH or more, its reflections,
    as the walk stacks their blocks (at these sizes a batch stays under
    BLOCK_ENTRIES, where the walk would start a new one); otherwise the
    Gram matrix min(2^|A|, 2^(n-|A|) r) wide is solved whole."""
    n, v = state.num_qubits, state.factor
    r = v.shape[1]
    generators = qubit_symmetry(state)
    reps = orbit_representatives(n, generators)
    aligned = column_sectors(v) is not None
    flip = aligned and dense_flips(state)
    solved, every = Counter(), Counter()
    batches = {}  # (|A|, reflections) -> (reflections, reduced states)
    full = (1 << n) - 1
    for mask in set(reps.tolist()) - {0}:
        if r == 1 and reps[full ^ mask] < mask:
            continue
        m = bin(mask).count("1")
        c = min(1 << m, r << (n - m))
        if aligned and c == 1 << m:
            reflections = ring_reflections(n, mask) if holds_reflections(n, generators) else []
            key = (m, tuple(map(tuple, reflections)) if math.comb(m, m // 2) >= REFLECTED_WIDTH else ())
            batches.setdefault(key, (reflections, []))[1].append(partial_trace(state, mask).matrix)
        elif c > 1:
            solved[c, not np.iscomplexobj(v)] += 1
    for reflections, batch in batches.values():
        assert len(batch) * len(batch[0]) ** 2 < BLOCK_ENTRIES
        block_solves(batch, reflections, flip, solved, every)
    return solved_sizes(solved), len(solved)


def model_spectra_solves(rings, shared, momenta=True):
    """The matrices that `spin_models._spectra` diagonalizes for XXZ rings
    side by side, as a Counter by size, from brute-force orbits.  The
    pattern blocks are the joint magnetization sectors (m_1, m_2, ...); with
    `momenta`, one ring of n >= 2 sites takes the momenta m = 0 .. n // 2 of
    its shift (real terms), each block on the orbits of period p with
    m p = 0 mod n; two rings, or any ring without `momenta`, take the
    trivial group.  With `shared`, only one block of each pair of sectors
    that the spin flip exchanges is solved."""
    sizes = [ring.num_spins for ring in rings]
    found = Counter()
    for counts in itertools.product(*(range(n + 1) for n in sizes)):
        twin = tuple(n - k for n, k in zip(sizes, counts))
        if shared and twin < counts:
            continue
        if len(sizes) > 1 or not momenta:
            found[math.prod(math.comb(n, k) for n, k in zip(sizes, counts))] += 1
            continue
        n, (k,) = sizes[0], counts
        periods = Counter()
        for s in range(1 << n):
            if bin(s).count("1") != k:
                continue
            turns = [((s >> j) | (s << (n - j))) & ((1 << n) - 1) for j in range(n)]
            if s == min(turns):
                periods[next(j for j in range(1, n + 1) if turns[j % n] == s)] += 1
        for m in range(n // 2 + 1):
            size = sum(count for p, count in periods.items() if m * p % n == 0)
            if size:
                found[size] += 1
    return found
