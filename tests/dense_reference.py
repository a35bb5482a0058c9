"""Dense matrices, and the states and terms made from them: the tests'
reference for the forms the library takes.

The library takes a Hamiltonian as `HamiltonianTerms` only, and a state has
popcount blocks only when they come from a sector-aligned factor or from a
channel that keeps popcounts apart.  These helpers build dense chain
Hamiltonians from `chain_terms`, terms from any dense matrix, and the block
or one-block state of a dense density matrix, asserting the form they make;
and the pieces that a popcount block of a reduced ring state splits into
under the spin flip and the ring reflections that fix its qubits, from
projectors onto their joint eigenspaces.
"""

import itertools
import math
from collections import Counter

import numpy as np

from qcorr import DensityOperator, HamiltonianTerms, chain_terms, ising_ring, xxz_ring
from qcorr.entropy import REFLECTED_WIDTH, orbit_representatives, qubit_symmetry
from qcorr.states import SUPPORT_CUTOFF, block_layout, partial_trace

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


def model_solves(state, flip):
    """(solved, every, calls): the matrices larger than 1 x 1 that a dense
    model of the walk diagonalizes in one `ccm` of `state`, a ring state in
    block form, and all its popcount blocks larger than 1 x 1, as Counters
    by size, and the stacked eigensolves that takes.  The orbit
    representatives are those of `qubit_symmetry(state)`, and each one's
    reduced state comes from the dense partial trace (`block_solves`)."""
    n = state.num_qubits
    generators = qubit_symmetry(state)
    whole, pieces, every = Counter(), Counter(), Counter()
    for mask in set(orbit_representatives(n, generators).tolist()) - {0}:
        reduced = partial_trace(state, mask).matrix
        block_solves(reduced, ring_reflections(n, mask) if holds_reflections(n, generators) else [], flip,
                     whole, pieces, every)
    return whole + pieces, every, len(whole) + len(pieces)


def holds_reflections(n, generators):
    """Whether the group of `generators` holds the n-qubit ring's reflections: D_n or S_n."""
    return len(generators) == 2 and generators[0] == dihedral(n)[0]


def block_solves(reduced, reflections, flip, whole, pieces, every):
    """Count into the Counters `whole`, `pieces` and `every`, by size, the
    matrices that the walk diagonalizes for one node, `reduced` (an m-qubit
    density matrix that holds popcounts apart), and its popcount blocks
    larger than 1 x 1.  A block that is exactly 0.0 is skipped, and so,
    with `flip`, is block k > m/2 (block m - k's spectrum serves it); any
    other is split by `split_block`: the flip on the middle block when
    `flip`, and the cheapest of `reflections` (`ring_reflections`).  A
    block that is not split is solved whole, in one call per size; a piece
    of a split, in one call per piece size, if it is larger than 1 x 1 and
    the real or imaginary part of one of its entries passes
    SUPPORT_CUTOFF / (sqrt(2) size), so that it may have an eigenvalue
    above SUPPORT_CUTOFF."""
    m = reduced.shape[0].bit_length() - 1
    for k, idx in enumerate(block_layout(m).sectors):
        c = idx.size
        if c == 1:
            continue
        every[c] += 1
        block = reduced[np.ix_(idx, idx)]
        if not block.any() or (flip and 2 * k > m):
            continue
        split = split_block(block, idx, m, reflections, flip and 2 * k == m)
        if len(split) == 1:
            whole[c] += 1
            continue
        for piece in split:
            parts = np.concatenate([piece.real, piece.imag])
            if piece.shape[0] > 1 and math.sqrt(2) * piece.shape[0] * np.abs(parts).max() > SUPPORT_CUTOFF:
                pieces[piece.shape[0]] += 1


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
    (2^n x r), as a Counter by size, and the stacked eigensolves that takes.

    The orbit representatives are those of `qubit_symmetry(state)`; with
    r = 1, a representative A whose complement's representative is smaller
    copies that entry and is skipped.  When 2^|A| <= 2^(n-|A|) r and each
    column of V lies in one popcount sector, A's reduced state from the
    dense partial trace is split as `block_solves` does, with the flip when
    `dense_flips`; otherwise the Gram matrix min(2^|A|, 2^(n-|A|) r) wide
    is solved whole."""
    n, v = state.num_qubits, state.factor
    r = v.shape[1]
    generators = qubit_symmetry(state)
    reps = orbit_representatives(n, generators)
    aligned = column_sectors(v) is not None
    flip = aligned and dense_flips(state)
    whole, pieces, every = Counter(), Counter(), Counter()
    full = (1 << n) - 1
    for mask in set(reps.tolist()) - {0}:
        if r == 1 and reps[full ^ mask] < mask:
            continue
        m = bin(mask).count("1")
        c = min(1 << m, r << (n - m))
        if aligned and c == 1 << m:
            reflections = ring_reflections(n, mask) if holds_reflections(n, generators) else []
            block_solves(partial_trace(state, mask).matrix, reflections, flip, whole, pieces, every)
        elif c > 1:
            whole[c] += 1
    return whole + pieces, len(whole) + len(pieces)


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
