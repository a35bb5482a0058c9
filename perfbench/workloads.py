"""Seeded inputs for the three benchmark workloads.

Every input is made here from the workload seed with numpy alone; the program
under test only ever sees the qs1 files and the grid arguments written below.
Each workload is one *pass*: a fixed list of `qcorr` command lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WHY = {
    "state-files": "ccm on n=10 qs1 files of rank 1, 2 and 2^n: subset eigensolves, "
                   "partial traces and the qs1 parser dominate",
    "xxz-sweep": "xxz N=10 sweep across the delta=1 crossing with tv and derivative: "
                 "the only workload where Hamiltonian build and ground-state eigh are large",
    "noise-sweep": "xxz N=8 ground states under phase damping, p=0..0.8: ccm on damped "
                   "high-rank inputs and the only workload that runs the channels layer",
}

# Sizes of the full workloads and of the smoke mode used by the benchmark's own tests.
SIZES = {
    False: {"files_n": 10, "xxz_spins": 10, "noise_spins": 8},
    True: {"files_n": 4, "xxz_spins": 4, "noise_spins": 4},
}
RANDOM_PURE_FILES = 3
XXZ_STEPS = 3
NOISE_STEPS = 7
NOISE_P = (0.0, 0.8, 5)


@dataclass
class Workload:
    name: str
    ops: list[list[str]]          # argv for qcorr.cli.main, one per op of a pass
    warmup: list[str]             # one small call of the same kind, run before timing
    ccm_per_op: list[int]         # CCM evaluations each op asks for
    shares: dict[str, float]      # input kinds by construction, as shares of ccm inputs
    expect: dict = field(default_factory=dict)  # what the checks need to know


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _write_qs1(path: Path, kind: str, n: int, values: np.ndarray) -> None:
    values = values.reshape(-1)
    body = "\n".join(map("{!r} {!r}".format, values.real.tolist(), values.imag.tolist()))
    path.write_text(f"qs1 {kind} {n}\n{body}\n", encoding="ascii")


def _density_from_factor(v: np.ndarray) -> np.ndarray:
    rho = v @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian in storage
    return rho / np.trace(rho).real


def _state_files(rng: np.random.Generator, work: Path, n: int) -> Workload:
    dim = 1 << n
    files = []  # (name, kind, factor V with rho = V V^dagger or None, dense rho or None)
    for k in range(RANDOM_PURE_FILES):
        v = _ginibre(rng, dim, 1)
        files.append((f"pure{k}", "pure", v / np.linalg.norm(v), None))
    files.append(("ghz", "pure", ghz_state(n).reshape(-1, 1), None))
    v2 = _ginibre(rng, dim, 2)
    v2 /= np.linalg.norm(v2)
    files.append(("rank2", "rank2", v2, _density_from_factor(v2)))
    # Wishart part mixed with the identity keeps every eigenvalue >= 0.1 / dim.
    full = 0.9 * _density_from_factor(_ginibre(rng, dim, dim)) + 0.1 * np.eye(dim) / dim
    files.append(("fullrank", "fullrank", None, full))

    ops, entries = [], []
    for name, kind, v, rho in files:
        path = work / f"{name}.qs1"
        if rho is None:
            _write_qs1(path, "pure", n, v[:, 0])
        else:
            _write_qs1(path, "mixed", n, rho)
        ops.append(["ccm", str(path), "--report"])
        entries.append({"name": name, "kind": kind, "factor": v, "rho": rho})
    warm = work / "warm.qs1"
    _write_qs1(warm, "pure", 4, ghz_state(4))
    total = len(files)
    shares = {kind: sum(e["kind"] == kind for e in entries) / total
              for kind in ("pure", "rank2", "fullrank")}
    return Workload("state-files", ops, ["ccm", str(warm), "--report"], [1] * total, shares,
                    {"n": n, "files": entries})


def ghz_state(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = math.sqrt(0.5)
    return v


def _jitter(rng: np.random.Generator, centre: float) -> float:
    return round(centre + 0.1 * (rng.random() - 0.5), 4)


def _xxz_sweep(rng: np.random.Generator, work: Path, spins: int) -> Workload:
    start, stop = _jitter(rng, 0.4), _jitter(rng, 1.4)  # two points below delta = 1, one above
    out = work / "xxz.csv"
    grid = ["--param-start", repr(start), "--param-stop", repr(stop),
            "--param-steps", str(XXZ_STEPS)]
    op = ["sweep", "--model", "xxz", "--spins", str(spins), "--tv", "--derivative",
          *grid, "--out", str(out)]
    warmup = ["sweep", "--model", "xxz", "--spins", "4", "--tv", "--derivative",
              "--param-start", "0.5", "--param-stop", "1.5", "--param-steps", "3",
              "--out", str(work / "warm.csv")]
    return Workload("xxz-sweep", [op], warmup, [XXZ_STEPS], {},
                    {"spins": spins, "start": start, "stop": stop, "steps": XXZ_STEPS,
                     "out": str(out)})


def _noise_sweep(rng: np.random.Generator, work: Path, spins: int) -> Workload:
    start, stop = _jitter(rng, -1.5), _jitter(rng, 0.5)
    p_start, p_stop, p_steps = NOISE_P
    out = work / "noise.csv"
    op = ["noise", "--spins", str(spins), "--channel", "paper",
          "--param-start", repr(start), "--param-stop", repr(stop),
          "--param-steps", str(NOISE_STEPS),
          "--p-start", repr(p_start), "--p-stop", repr(p_stop), "--p-steps", str(p_steps),
          "--out", str(out)]
    warmup = ["noise", "--spins", "4", "--channel", "paper", "--param-start", "-1.5",
              "--param-stop", "0.5", "--param-steps", "2", "--p-start", "0", "--p-stop",
              "0.8", "--p-steps", "2", "--out", str(work / "warm.csv")]
    p_values = np.linspace(p_start, p_stop, p_steps)
    return Workload("noise-sweep", [op], warmup, [NOISE_STEPS * p_steps],
                    {"damped": float(np.mean(p_values > 0.0))},
                    {"spins": spins, "start": start, "stop": stop, "steps": NOISE_STEPS,
                     "p": (p_start, p_stop, p_steps), "out": str(out)})


GENERATORS = {"state-files": _state_files, "xxz-sweep": _xxz_sweep, "noise-sweep": _noise_sweep}
SIZE_KEY = {"state-files": "files_n", "xxz-sweep": "xxz_spins", "noise-sweep": "noise_spins"}


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Write the inputs of workload `name` for `seed` under `work`."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(name)])
    return GENERATORS[name](rng, work, SIZES[smoke][SIZE_KEY[name]])
