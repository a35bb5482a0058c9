"""Per-layer spans recorded from outside the program.

The benchmark never edits `qcorr`: it replaces module-level names with timing
wrappers while a traced pass runs and puts the originals back afterwards.
Every replacement goes through `sys.modules`, because attribute access on the
package is ambiguous: `qcorr/__init__.py` re-exports the function `ccm`, so
`qcorr.ccm` is that function, not the `qcorr.ccm` module.

A name that a later version of the program no longer has is skipped, and its
span is reported with 0 calls. Spans assume one thread (sweeps run at the
default single worker).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

SUPPORT_CUTOFF = 1e-12  # eigenvalues at or below this are outside the support


class Tracer:
    """Aggregated spans: calls, inclusive and self time, plus counters.

    Book-keeping done by the benchmark inside a traced pass (counting lines,
    classifying inputs) is moved out of the clock, so neither the spans nor the
    traced pass time include it.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.kinds = defaultdict(int)
        self.classify = True   # input ranks are the same every pass: classify once
        self._stack: list[list[float]] = []
        self._aside = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._aside

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([self.now(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                start, child = self._stack.pop()
                duration = self.now() - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - child
                if self._stack:
                    self._stack[-1][1] += duration
            if after is not None:
                t0 = time.perf_counter()
                after(self, args, result)
                self._aside += time.perf_counter() - t0
            return result

        return wrapper


# Hooks run after a span closes, off the clock.

def _count_lines(tr: Tracer, args, result) -> None:
    with open(args[0], "rb") as fh:
        tr.counters["states.read_qs1.lines"] += fh.read().count(b"\n")


def _trace_bytes(tr: Tracer, args, result) -> None:
    tr.counters["states.partial_trace.bytes_computed"] += 16 * 4 ** args[0].num_qubits


def _eig_work(tr: Tracer, args, result) -> None:
    d = int(np.shape(args[0])[0])
    tr.counters["entropy.eig.flops_computed"] += float(d) ** 3
    tr.counters["entropy.eig.dim_max"] = max(tr.counters["entropy.eig.dim_max"], d)


def _ccm_work(tr: Tracer, args, result) -> None:
    stats = getattr(result, "stats", None)
    tr.counters["ccm.entropies"] += getattr(stats, "entropies_computed", 0)
    # CcmStats makes three cached entropy lookups per bipartition.
    tr.counters["ccm.bipartitions"] += getattr(stats, "cache_hits", 0) // 3
    if tr.classify:
        tr.kinds[_input_kind(args[0])] += 1


def _input_kind(state) -> str:
    matrix = getattr(state, "matrix", None)
    if matrix is None:
        return "pure" if hasattr(state, "amplitudes") else "other"
    rank = int((np.linalg.eigvalsh(matrix) > SUPPORT_CUTOFF).sum())
    if rank == 1:
        return "pure"
    if rank == 2:
        return "rank2"
    return "fullrank" if rank == matrix.shape[0] else "other"


def _ground_rank(tr: Tracer, args, result) -> None:
    matrix = getattr(result, "matrix", None)
    if matrix is not None:  # 1 / Tr rho^2 is the rank of a uniform projector mixture
        tr.counters["ground_rank_sum"] += 1.0 / float(np.vdot(matrix, matrix).real)
        tr.counters["ground_rank_n"] += 1


def _csv_bytes(tr: Tracer, args, result) -> None:
    tr.counters["sweeps.csv_bytes"] += os.path.getsize(args[0])


# (span, module, attribute, where): "all" replaces the object under every name
# that any loaded qcorr module binds it to; "here" replaces only that module's
# binding, for helpers shared by layers that must be told apart.
PLAN = [
    ("states.read_qs1", "qcorr.states", "read_qs1", "all", _count_lines),
    ("states.check_psd", "qcorr.states", "hermitian_eigenvalues", "here", None),
    ("states.validate", "qcorr.linalg", "is_hermitian", "all", None),
    ("states.to_density", "qcorr.states", "PureState.to_density", "here", None),
    ("states.partial_trace", "qcorr.states", "partial_trace", "all", _trace_bytes),
    ("entropy.eig", "qcorr.entropy", "hermitian_eigenvalues", "here", _eig_work),
    ("entropy.von_neumann", "qcorr.entropy", "von_neumann_entropy", "all", None),
    ("entropy.multi_information", "qcorr.entropy", "multi_information", "all", None),
    ("ccm.ccm", "qcorr.ccm", "ccm", "all", _ccm_work),
    ("spin_models.build", "qcorr.spin_models", "build_hamiltonian", "all", None),
    ("linalg.eigh", "qcorr.spin_models", "hermitian_eigensystem", "here", None),
    ("spin_models.ground_state", "qcorr.spin_models", "ground_state", "all", _ground_rank),
    ("channels.apply", "qcorr.channels", "apply_channel_local", "all", None),
    ("sweeps.write_csv", "qcorr.sweeps", "write_csv", "all", _csv_bytes),
]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every name in PLAN; returns the bindings to put back."""
    undo = []
    for span, module_name, attr, where, after in PLAN:
        owner = sys.modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        target = getattr(owner, leaf, None)
        tracer.calls[span] += 0  # a span with no calls is still reported
        if target is None:
            continue
        wrapper = tracer.wrap(span, target, after)
        if where == "here":
            holders = [(owner, leaf)]
        else:
            holders = [(m, key) for mod_name, m in list(sys.modules.items())
                       if mod_name == "qcorr" or mod_name.startswith("qcorr.")
                       for key, value in list(vars(m).items()) if value is target]
        for holder, key in holders:
            undo.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)
