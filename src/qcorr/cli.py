"""qcorr command-line tool.

Exit codes: 0 success, 2 malformed input or out-of-range request,
3 resource guard tripped or out of memory, 4 numerical failure (including
failed checks), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .ccm import ccm, ccm_naive, ghz_closed_form
from .checks import run_default_checks
from .entropy import DistanceUnit, multi_information
from .errors import ConvergenceFailure, OutOfRange, ParseError, QcorrError, TooLarge
from .spin_models import GroundStateMode
from .states import make_ghz, read_qs1
from .sweeps import ParamRange, SweepConfig, noise_sweep_rows, sweep_rows, write_csv

DEGENERACY_MODES = {
    "mixture": GroundStateMode.SUBSPACE_MIXTURE,
    "first": GroundStateMode.FIRST_VECTOR,
}


def _add_unit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--unit", choices=["bits", "normalized"], default="normalized",
                        help="scale for all reported values (default: normalized)")


def _add_sweep_common(parser: argparse.ArgumentParser) -> None:
    _add_unit(parser)
    parser.add_argument("--degeneracy", choices=sorted(DEGENERACY_MODES), default="mixture",
                        help="ground-state policy when the lowest level is degenerate")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--spins", type=int, required=True,
                        help="sites per ring (a dxxz register holds twice this)")
    parser.add_argument("--param-start", type=float, required=True)
    parser.add_argument("--param-stop", type=float, required=True)
    parser.add_argument("--param-steps", type=int, required=True)


def _unit(args: argparse.Namespace) -> DistanceUnit:
    return DistanceUnit(args.unit)


def cmd_ghz(args: argparse.Namespace) -> int:
    n = args.n
    unit = _unit(args)
    closed_scale = 2.0 if unit is DistanceUnit.BITS else 1.0
    if args.mode in ("closed", "both") and not 2 <= n <= 10:
        raise OutOfRange("the closed form is tabulated for 2..10 qubits")
    if args.mode in ("direct", "both") and not 2 <= n <= 8:
        raise OutOfRange("direct evaluation supports 2..8 qubits")
    if args.mode == "closed":
        print(f"{n} {ghz_closed_form(n) * closed_scale:.9f}")
    elif args.mode == "direct":
        print(f"{n} {ccm(make_ghz(n), unit).value:.9f}")
    else:
        closed = ghz_closed_form(n) * closed_scale
        direct = ccm(make_ghz(n), unit).value
        print(f"{n} {closed:.9f} {direct:.9f} {abs(closed - direct):.3e}")
    return 0


def cmd_ccm(args: argparse.Namespace) -> int:
    state = read_qs1(args.state_file)
    unit = _unit(args)
    if args.naive:
        print(f"{ccm_naive(state, unit):.9f}")
        return 0
    report = ccm(state, unit)
    if args.report:
        print(report.to_json())
    else:
        print(f"{report.value:.9f}")
    return 0


def cmd_tv(args: argparse.Namespace) -> int:
    print(f"{multi_information(read_qs1(args.state_file), _unit(args)):.9f}")
    return 0


def _sweep_config(args: argparse.Namespace, *, model: str, with_noise: bool) -> SweepConfig:
    param2 = None
    second = [getattr(args, name, None) for name in ("param2_start", "param2_stop", "param2_steps")]
    if any(v is not None for v in second):
        if any(v is None for v in second):
            raise OutOfRange("--param2-start/stop/steps must be given together")
        param2 = ParamRange(*second)
    noise = None
    if with_noise:
        noise = ParamRange(args.p_start, args.p_stop, args.p_steps)
    return SweepConfig(
        model=model,
        spins=args.spins,
        param=ParamRange(args.param_start, args.param_stop, args.param_steps),
        param2=param2,
        noise=noise,
        channel=getattr(args, "channel", "paper"),
        unit=_unit(args),
        mode=DEGENERACY_MODES[args.degeneracy],
        include_tv=getattr(args, "tv", False),
        derivative=getattr(args, "derivative", False),
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args, model=args.model, with_noise=False)
    header, rows = sweep_rows(config)
    write_csv(args.out, header, rows)
    return 0


def cmd_noise(args: argparse.Namespace) -> int:
    config = _sweep_config(args, model="xxz", with_noise=True)
    header, rows, summaries = noise_sweep_rows(config)
    write_csv(args.out, header, rows)
    for line in summaries:
        print(line)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    results = run_default_checks(args.seed, args.count)
    for result in results:
        print(result.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 4


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `qcorr` parser, built once per process: parsing does not change
    it, and each parse fills a fresh namespace from its defaults."""
    parser = argparse.ArgumentParser(prog="qcorr",
                                     description="Cumulative correlation measure toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ghz = sub.add_parser("ghz", help="closed-form and/or direct GHZ values")
    p_ghz.add_argument("n", type=int, help="number of qubits")
    p_ghz.add_argument("--mode", choices=["closed", "direct", "both"], default="both")
    _add_unit(p_ghz)

    p_ccm = sub.add_parser("ccm", help="measure of a state loaded from a qs1 file")
    p_ccm.add_argument("state_file")
    p_ccm.add_argument("--naive", action="store_true",
                       help="use the literal recursion instead of the dynamic program")
    p_ccm.add_argument("--report", action="store_true",
                       help="dump the full minimizing-bipartition tree as JSON")
    _add_unit(p_ccm)

    p_tv = sub.add_parser("tv", help="total correlations of a state loaded from a qs1 file")
    p_tv.add_argument("state_file")
    _add_unit(p_tv)

    p_sweep = sub.add_parser("sweep", help="ground-state sweep over a parameter grid")
    p_sweep.add_argument("--model", choices=["xxz", "dxxz", "ising"], required=True)
    _add_sweep_common(p_sweep)
    p_sweep.add_argument("--param2-start", type=float)
    p_sweep.add_argument("--param2-stop", type=float)
    p_sweep.add_argument("--param2-steps", type=int)
    p_sweep.add_argument("--tv", action="store_true", help="add a total-correlations column")
    p_sweep.add_argument("--derivative", action="store_true",
                         help="add a finite-difference derivative column")

    p_noise = sub.add_parser("noise", help="xxz sweep under per-qubit damping noise")
    _add_sweep_common(p_noise)
    p_noise.add_argument("--p-start", type=float, required=True)
    p_noise.add_argument("--p-stop", type=float, required=True)
    p_noise.add_argument("--p-steps", type=int, required=True)
    p_noise.add_argument("--channel", choices=["paper", "standard"], default="paper",
                         help="damping operator pair: 'paper' = diagonal/dephasing, "
                              "'standard' = dissipative amplitude damping")

    p_check = sub.add_parser("check", help="run the property suites on random ensembles")
    p_check.add_argument("--seed", type=int, default=7)
    p_check.add_argument("--count", type=int, default=25, help="states per property")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not bound into the parser that is built once.
    commands = {"ghz": cmd_ghz, "ccm": cmd_ccm, "tv": cmd_tv, "sweep": cmd_sweep, "noise": cmd_noise,
                "check": cmd_check}
    try:
        return commands[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except QcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
