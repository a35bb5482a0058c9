"""Parameter sweeps over chain ground states, with CSV output.

A sweep evaluates the correlation measure (and optionally the total
correlations and a finite-difference derivative) on the ground state of a
model at every point of a parameter grid, and serializes the result as a
deterministic CSV: '.' decimal point, ',' delimiter, '\\n' line ends, nine
decimal places, rows in ascending parameter order.

Every grid is evaluated by one `ccm_many` call over a generator of its
states, so the states of the whole grid share stacks, and none is held once
it has been reduced.

XXZ-type grids never sample delta = 1 exactly: the ground level crosses
there, so a grid point that would land on it is displaced by half a step and
the discontinuity is detected from the adjacent pair straddling it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .ccm import ccm_many
from .channels import amplitude_damping_channel, apply_channel_local, phase_damping_channel
from .entropy import DistanceUnit, multi_information
from .errors import OutOfRange, TooLarge
from .spin_models import GroundStateMode, chain_terms, ground_state, ising_ring, xxz_ring
from .states import DensityOperator, full_mask

MAX_SWEEP_QUBITS = 10
GRID_EXCLUDE_ATOL = 1e-9

MODELS = ("xxz", "dxxz", "ising")

CHANNEL_PROFILES = {
    "paper": phase_damping_channel,
    "standard": amplitude_damping_channel,
}


@dataclass(frozen=True)
class ParamRange:
    """An inclusive, ascending, uniformly spaced grid."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise OutOfRange(f"a grid needs at least 2 points, got {self.steps}")
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise OutOfRange("grid bounds must be finite")
        if not self.stop > self.start:
            raise OutOfRange("grid stop must exceed start")

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.steps - 1)

    def values(self, exclude: tuple[float, ...] = ()) -> np.ndarray:
        return build_grid(self.start, self.stop, self.steps, exclude)


def build_grid(start: float, stop: float, steps: int,
               exclude: tuple[float, ...] = ()) -> np.ndarray:
    """Uniform grid; points hitting an excluded value move half a step up,
    except the last point, which moves down, so the grid stays in [start, stop]."""
    rng = ParamRange(start, stop, steps)  # bounds validation
    values = np.linspace(start, stop, steps)
    shift = np.full(steps, 0.5 * rng.step)
    shift[-1] = -shift[-1]
    for e in exclude:
        values = np.where(np.abs(values - e) < GRID_EXCLUDE_ATOL, values + shift, values)
    return values


@dataclass(frozen=True)
class SweepConfig:
    """One sweep run.

    `spins` counts the sites of a single ring; a dxxz sweep acts on a register
    of 2 * spins qubits.  `param` is delta for xxz/dxxz and lambda for ising;
    `param2` is the second ring's lambda (dxxz only).  `noise` adds a damping
    strength grid (xxz only) applied per qubit through the selected channel
    profile.
    """

    model: str
    spins: int
    param: ParamRange
    param2: ParamRange | None = None
    noise: ParamRange | None = None
    channel: str = "paper"
    unit: DistanceUnit = DistanceUnit.NORMALIZED
    mode: GroundStateMode = GroundStateMode.SUBSPACE_MIXTURE
    include_tv: bool = False
    derivative: bool = False

    def __post_init__(self):
        for value, kind in ((self.unit, DistanceUnit), (self.mode, GroundStateMode)):
            if not isinstance(value, kind):
                raise TypeError(f"expected a {kind.__name__}, got {type(value).__name__}")
        if self.model not in MODELS:
            raise OutOfRange(f"unknown model {self.model!r}, expected one of {MODELS}")
        total = self.total_qubits
        if total > MAX_SWEEP_QUBITS:
            raise TooLarge(f"sweeps support at most {MAX_SWEEP_QUBITS} qubits, got {total}")
        if self.model == "dxxz":
            if self.param2 is None:
                raise OutOfRange("a dxxz sweep needs the second ring's parameter grid")
            if self.derivative:
                raise OutOfRange("the derivative column is only defined for one-parameter sweeps")
        elif self.param2 is not None:
            raise OutOfRange(f"model {self.model!r} takes a single parameter grid")
        if self.noise is not None:
            if self.model != "xxz":
                raise OutOfRange("noise sweeps are defined for the xxz model")
            if self.derivative or self.include_tv:
                raise OutOfRange("noise sweeps emit plain (param, p, ccm) rows")
            if self.noise.start < 0.0 or self.noise.stop > 1.0:
                raise OutOfRange("damping strengths must lie in [0, 1]")
        if self.channel not in CHANNEL_PROFILES:
            raise OutOfRange(f"unknown channel profile {self.channel!r}")

    @property
    def total_qubits(self) -> int:
        return 2 * self.spins if self.model == "dxxz" else self.spins


def _grid_for(config: SweepConfig, rng: ParamRange) -> np.ndarray:
    # The level crossing sits at delta = 1 for XXZ-type rings only.
    exclude = (1.0,) if config.model in ("xxz", "dxxz") else ()
    return rng.values(exclude)


def _state_at(config: SweepConfig, point: tuple[float, ...]) -> DensityOperator:
    if config.model == "xxz":
        rings = (xxz_ring(config.spins, point[0]),)
    elif config.model == "ising":
        rings = (ising_ring(config.spins, point[0]),)
    else:
        rings = (xxz_ring(config.spins, point[0]), xxz_ring(config.spins, point[1]))
    return ground_state(chain_terms(*rings), config.mode)


def sweep_rows(config: SweepConfig) -> tuple[list[str], list[tuple[float, ...]]]:
    """Evaluate the sweep; returns (header, rows) ready for `write_csv`.

    A config with a damping grid is refused: its rows come from
    `noise_sweep_rows`, together with their prominence summaries.  The
    ground states go through one `ccm_many` call, and each one's total
    correlations are taken as it arrives.
    """
    if config.noise is not None:
        raise OutOfRange("a config with a damping grid is evaluated by noise_sweep_rows")
    grid = _grid_for(config, config.param)
    if config.model == "dxxz":
        points = [(float(x), float(y)) for x in grid for y in _grid_for(config, config.param2)]
        header = ["param", "param2", "ccm"]
    else:
        points = [(float(x),) for x in grid]
        header = ["param", "ccm"]
    if config.include_tv:
        header.append("tv")

    tvs = []  # the tv column of each row, or nothing

    def states():
        for point in points:
            state = _state_at(config, point)
            tvs.append((multi_information(state, config.unit),) if config.include_tv else ())
            yield state

    reports = ccm_many(states(), config.unit)
    rows = [point + (report.value,) + tv for point, report, tv in zip(points, reports, tvs)]
    if config.derivative:
        header.append("dccm")
        xs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        dccm = central_difference(xs, ys)
        rows = [row + (d,) for row, d in zip(rows, dccm)]
    return header, rows


def noise_sweep_rows(config: SweepConfig) -> tuple[list[str], list[tuple[float, ...]], list[str]]:
    """(param, p, ccm) rows plus one peak-prominence summary line per p.

    The whole grid is evaluated by one `ccm_many` call over a generator, so
    the damped states of every row share stacks, and none is held once it
    has been reduced.
    """
    if config.noise is None:
        raise OutOfRange("noise sweep requires a damping grid")
    grid = _grid_for(config, config.param)
    p_values = [float(p) for p in config.noise.values()]
    make_channel = CHANNEL_PROFILES[config.channel]
    channels = {p: make_channel(p) for p in p_values}
    everything = full_mask(config.spins)

    def damped():
        # One pass over the grid, state by state: the damped states of every
        # row are walked in shared stacks, and p = 0 (the state itself)
        # keeps its factor.
        for x in grid:
            state = _state_at(config, (float(x),))
            for p in p_values:
                yield apply_channel_local(state, channels[p], everything)

    values = [report.value for report in ccm_many(damped(), config.unit)]
    per_delta = [values[i:i + len(p_values)] for i in range(0, len(values), len(p_values))]
    rows = []
    for x, values in zip(grid, per_delta):
        for p, v in zip(p_values, values):
            rows.append((float(x), p, v))
    summaries = []
    for j, p in enumerate(p_values):
        curve = [values[j] for values in per_delta]
        prominence = max(curve) - max(curve[0], curve[-1])
        summaries.append(f"# prominence p={_fmt(p)}: {_fmt(prominence)}")
    return ["param", "p", "ccm"], rows, summaries


def central_difference(xs: list[float], ys: list[float]) -> list[float]:
    """dy/dx on a grid: centered in the interior, one-sided at the endpoints."""
    if len(xs) < 2:
        raise OutOfRange("need at least two samples to differentiate")
    out = [(ys[1] - ys[0]) / (xs[1] - xs[0])]
    for i in range(1, len(xs) - 1):
        out.append((ys[i + 1] - ys[i - 1]) / (xs[i + 1] - xs[i - 1]))
    out.append((ys[-1] - ys[-2]) / (xs[-1] - xs[-2]))
    return out


def _fmt(v: float) -> str:
    if v == 0.0:
        v = 0.0  # collapse -0.0
    return f"{v:.9f}"


def write_csv(path: str | os.PathLike, header: list[str], rows: list[tuple[float, ...]]) -> None:
    """Write rows with nine decimal places; the file appears only when complete."""
    text_rows = [",".join(header)]
    text_rows.extend(",".join(_fmt(v) for v in row) for row in rows)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join(text_rows) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
