"""Output checks, made with numpy alone and never with `qcorr` itself.

Three kinds of check run on the outputs of the first pass (later passes must
repeat them byte for byte):

* an independent reference: subset entropies from the generated state (a
  Schmidt factor where the rank is low, a dense partial trace otherwise), the
  subset dynamic program for the CCM, and XXZ ground spaces built from bit
  operations;
* structure: every `--report` tree's distance terms are the weighted mutual
  informations of its cuts and sum to its value; CSV headers, grids, the
  derivative column and the prominence lines;
* at the default seed, the golden values recorded at the seed commit.

Each function returns one error string per op, or None for an op that passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SUPPORT_CUTOFF = 1e-12
TOL = 1e-9                 # the tolerance the program's tests use for CCM values
CSV_TOL = TOL + 1e-9       # plus rounding of each nine-decimal CSV field
GRID_EXCLUDE = 1.0         # XXZ level crossing, never sampled exactly
GRID_EXCLUDE_ATOL = 1e-9
GHZ_TABLE = {2: 1.0, 3: 2.5, 4: 5.0, 5: 10.0, 6: 19.0, 7: 36.5, 8: 70.0, 9: 137.0, 10: 268.0}
GOLDEN = Path(__file__).with_name("golden.json")


# ----------------------------------------------------------------------------
# Independent reference

def _entropy_bits(eigs: np.ndarray) -> float:
    eigs = eigs[eigs > SUPPORT_CUTOFF]
    return float(-(eigs * np.log2(eigs)).sum())


def _split(mask: int, n: int) -> tuple[list[int], list[int]]:
    kept = [q for q in range(n) if mask >> q & 1]
    return kept, [q for q in range(n) if not mask >> q & 1]


def factor_entropies(v: np.ndarray, n: int) -> list[float]:
    """S(rho_A) in bits for every mask A, with rho = V V^dagger (qubit 0 = first axis)."""
    t = v.reshape((2,) * n + (v.shape[1],))
    out = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        kept, rest = _split(mask, n)
        x = t.transpose(kept + rest + [n]).reshape(1 << len(kept), -1)
        gram = x @ x.conj().T if x.shape[0] <= x.shape[1] else x.conj().T @ x
        out[mask] = _entropy_bits(np.linalg.eigvalsh(gram))
    return out


def dense_entropy(rho: np.ndarray, n: int, mask: int) -> float:
    kept, rest = _split(mask, n)
    da, db = 1 << len(kept), 1 << len(rest)
    t = rho.reshape((2,) * (2 * n)).transpose(kept + rest + [n + q for q in kept + rest])
    return _entropy_bits(np.linalg.eigvalsh(np.einsum("ibjb->ij", t.reshape(da, db, da, db))))


def ccm_value(entropies: list[float], n: int) -> float:
    """Subset DP over cuts that keep a subset's lowest qubit in block A; normalized units."""
    value = [0.0] * (1 << n)
    for mask in range(3, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        rest = mask ^ low
        weight = float(1 << (bin(mask).count("1") - 2))
        h = entropies[mask]
        best = math.inf
        sub = (rest - 1) & rest
        while True:
            a = low | sub
            b = mask ^ a
            cost = weight * max(entropies[a] + entropies[b] - h, 0.0) + value[a] + value[b]
            best = min(best, cost)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        value[mask] = best
    return value[(1 << n) - 1] * 0.5


def xxz_ground_factor(spins: int, delta: float, rtol: float = 1e-9) -> np.ndarray:
    """Ground space of the periodic XXZ ring as V with rho = V V^dagger.

    H = -sum_i [ (X_i X_j + Y_i Y_j)/2 + delta Z_i Z_j / 2 ], j = i + 1 mod N, so
    the hopping term is -1 between states that differ by an antiparallel
    neighbour swap and the diagonal is -delta/2 per parallel minus antiparallel
    bond. Levels within rtol * (spectral span) of the lowest are mixed evenly.
    """
    dim = 1 << spins
    idx = np.arange(dim)
    ham = np.zeros((dim, dim))
    for i in range(spins):
        j = (i + 1) % spins
        bi, bj = 1 << (spins - 1 - i), 1 << (spins - 1 - j)
        anti = ((idx & bi) > 0) != ((idx & bj) > 0)
        ham[idx, idx] -= 0.5 * delta * np.where(anti, -1.0, 1.0)
        flipped = idx[anti] ^ bi ^ bj
        ham[flipped, idx[anti]] -= 1.0
    vals, vecs = np.linalg.eigh(ham)
    block = vecs[:, vals <= vals[0] + rtol * (vals[-1] - vals[0])]
    return block.astype(complex) / math.sqrt(block.shape[1])


def dephase(rho: np.ndarray, n: int, p: float) -> np.ndarray:
    """Phase damping on every qubit: an entry shrinks by sqrt(1-p) per differing bit."""
    idx = np.arange(1 << n)
    differ = np.array([bin(k).count("1") for k in range(1 << n)])[idx[:, None] ^ idx[None, :]]
    return rho * (1.0 - p) ** (0.5 * differ)


def expected_grid(start: float, stop: float, steps: int, exclude: bool = True) -> np.ndarray:
    values = np.linspace(start, stop, steps)
    if exclude:
        step = (stop - start) / (steps - 1)
        hit = np.abs(values - GRID_EXCLUDE) < GRID_EXCLUDE_ATOL
        shift = 0.5 * step if GRID_EXCLUDE < stop else -0.5 * step
        values = np.where(hit, values + shift, values)
    return values


# ----------------------------------------------------------------------------
# Checks

def _tree_error(report: dict, n: int, entropy) -> str | None:
    problems = []

    def walk(node, subset: int) -> float:
        if subset & (subset - 1) == 0:
            if node is not None:
                problems.append(f"single-qubit block {subset} has a child node")
            return 0.0
        a, b = node["mask_a"], node["mask_b"]
        if node["subset"] != subset or a | b != subset or a & b or not a or not b:
            problems.append(f"node {node['subset']} is not a cut of {subset}")
            return node["value"]
        weight = float(1 << (bin(subset).count("1") - 2))
        expected = weight * max(entropy(a) + entropy(b) - entropy(subset), 0.0) * 0.5
        if abs(node["distance_term"] - expected) > TOL:
            problems.append(f"distance term of cut {a}|{b} is {node['distance_term']!r}, "
                            f"reference {expected!r}")
        total = node["distance_term"] + walk(node["left"], a) + walk(node["right"], b)
        if abs(node["value"] - total) > TOL:
            problems.append(f"node {subset} value {node['value']!r} != terms {total!r}")
        return total

    total = walk(report["tree"], (1 << n) - 1)
    if abs(report["value"] - total) > TOL:
        problems.append(f"value {report['value']!r} != sum of distance terms {total!r}")
    return "; ".join(problems) or None


def check_state_files(expect: dict, outputs: list[dict], golden: dict | None) -> list[str | None]:
    n = expect["n"]
    errors = []
    for entry, out in zip(expect["files"], outputs):
        try:
            report = json.loads(out["stdout"])
        except (json.JSONDecodeError, TypeError):
            errors.append(f"{entry['name']}: no JSON report")
            continue
        problems = []
        if entry["factor"] is not None:
            table = factor_entropies(entry["factor"], n)
            entropy = table.__getitem__
            reference = ccm_value(table, n)
            if abs(report["value"] - reference) > TOL:
                problems.append(f"value {report['value']!r}, reference {reference!r}")
        else:  # full rank: the reference checks the cuts the tree reports
            memo: dict[int, float] = {}

            def entropy(mask, rho=entry["rho"]):
                if mask not in memo:
                    memo[mask] = dense_entropy(rho, n, mask)
                return memo[mask]
        if entry["name"] == "ghz" and abs(report["value"] - GHZ_TABLE[n]) > TOL:
            problems.append(f"GHZ-{n} value {report['value']!r}, closed form {GHZ_TABLE[n]}")
        tree = _tree_error(report, n, entropy)
        if tree:
            problems.append(tree)
        if golden is not None:
            want = golden["values"][entry["name"]]
            if abs(report["value"] - want) > TOL:
                problems.append(f"value {report['value']!r}, golden {want!r}")
        errors.append(f"{entry['name']}: " + "; ".join(problems) if problems else None)
    return errors


def _csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"header {lines[0]!r}, expected {header!r}, and a final newline")
    return [[float(x) for x in line.split(",")] for line in lines[1:-1]]


def _compare(rows, want, tols, what: str) -> list[str]:
    if len(rows) != len(want):
        return [f"{len(rows)} rows, {what} has {len(want)}"]
    bad = []
    for i, (row, ref) in enumerate(zip(rows, want)):
        for got, exp, tol in zip(row, ref, tols):
            if not abs(got - exp) <= tol:
                bad.append(f"row {i}: {row} vs {what} {list(ref)}")
                break
    return bad


def _central_difference(xs, ys) -> list[float]:
    out = [(ys[1] - ys[0]) / (xs[1] - xs[0])]
    out += [(ys[i + 1] - ys[i - 1]) / (xs[i + 1] - xs[i - 1]) for i in range(1, len(xs) - 1)]
    return out + [(ys[-1] - ys[-2]) / (xs[-1] - xs[-2])]


def check_xxz(expect: dict, outputs: list[dict], golden: dict | None) -> list[str | None]:
    spins = expect["spins"]
    xs = expected_grid(expect["start"], expect["stop"], expect["steps"])
    ccms, tvs = [], []
    for x in xs:
        table = factor_entropies(xxz_ground_factor(spins, float(x)), spins)
        ccms.append(ccm_value(table, spins))
        tvs.append(0.5 * (sum(table[1 << q] for q in range(spins)) - table[-1]))
    dccm = _central_difference(list(xs), ccms)
    d_tol = 2 * CSV_TOL / float(np.min(np.diff(xs))) + CSV_TOL
    tols = (CSV_TOL, CSV_TOL, CSV_TOL, d_tol)
    try:
        rows = _csv_rows(outputs[0]["csv"], "param,ccm,tv,dccm")
    except (ValueError, AttributeError) as exc:
        return [f"xxz csv: {exc}"]
    problems = _compare(rows, list(zip(xs, ccms, tvs, dccm)), tols, "reference")
    if golden is not None:
        problems += _compare(rows, _csv_rows(golden["csv"], "param,ccm,tv,dccm"), tols, "golden")
    return ["xxz csv: " + "; ".join(problems) if problems else None]


def check_noise(expect: dict, outputs: list[dict], golden: dict | None) -> list[str | None]:
    spins = expect["spins"]
    xs = expected_grid(expect["start"], expect["stop"], expect["steps"])
    ps = expected_grid(*expect["p"], exclude=False)
    want, curves = [], {float(p): [] for p in ps}
    for x in xs:
        v = xxz_ground_factor(spins, float(x))
        rho = v @ v.conj().T
        for p in ps:
            noisy = dephase(rho, spins, float(p))
            table = [0.0] + [dense_entropy(noisy, spins, m) for m in range(1, 1 << spins)]
            value = ccm_value(table, spins)
            want.append((x, p, value))
            curves[float(p)].append(value)
    try:
        rows = _csv_rows(outputs[0]["csv"], "param,p,ccm")
    except (ValueError, AttributeError) as exc:
        return [f"noise csv: {exc}"]
    tols = (CSV_TOL,) * 3
    problems = _compare(rows, want, tols, "reference")
    prominence = [[p, max(c) - max(c[0], c[-1])] for p, c in curves.items()]
    try:
        got = _prominence_lines(outputs[0]["stdout"])
    except ValueError as exc:
        return [f"noise stdout: {exc}"]
    problems += _compare(got, prominence, (CSV_TOL, 2 * CSV_TOL), "reference prominence")
    if golden is not None:
        problems += _compare(rows, _csv_rows(golden["csv"], "param,p,ccm"), tols, "golden")
        problems += _compare(got, _prominence_lines(golden["stdout"]), (CSV_TOL, 2 * CSV_TOL),
                             "golden prominence")
    return ["noise csv: " + "; ".join(problems) if problems else None]


def _prominence_lines(text: str) -> list[list[float]]:
    """[p, prominence] from lines '# prominence p=<p>: <value>'."""
    out = []
    for line in text.split("\n")[:-1]:
        head, _, value = line.partition(": ")
        if not head.startswith("# prominence p="):
            raise ValueError(f"unexpected line {line!r}")
        out.append([float(head[len("# prominence p="):]), float(value)])
    return out


CHECKS = {"state-files": check_state_files, "xxz-sweep": check_xxz, "noise-sweep": check_noise}


def check(name: str, expect: dict, outputs: list[dict], use_golden: bool) -> list[str | None]:
    golden = json.loads(GOLDEN.read_text())[name] if use_golden else None
    return CHECKS[name](expect, outputs, golden)


def golden_entry(name: str, expect: dict, outputs: list[dict]) -> dict:
    """What `check` compares against at the default seed."""
    if name == "state-files":
        return {"values": {e["name"]: json.loads(o["stdout"])["value"]
                           for e, o in zip(expect["files"], outputs)}}
    entry = {"csv": outputs[0]["csv"]}
    if name == "noise-sweep":
        entry["stdout"] = outputs[0]["stdout"]
    return entry
