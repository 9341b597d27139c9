"""Command-line interface: tensors, maximization, criterion checks, scans.

Handlers return their text and certificate flag; ``main`` alone writes the text
(to stdout or --out) and exits 0 on success, 2 on invalid arguments or inputs,
3 when --require-certified is set and the Fourier bound does not meet T_max.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .correlation import CorrelationTensor, ghz_planar_tensor
from .criterion import ScanPoint, ghz_scan, ri_criterion
from .errors import DomainError, RotbellError
from .lhv import verify_bound
from .tensor_analysis import OptimizerConfig, t_max

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CERTIFIED = 3

SCAN_COLUMNS = ("N", "V", "lhs", "rhs", "violated", "sum_sq", "two_setting_model", "region")


def _load_tensor(path: str) -> CorrelationTensor:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long int, deep nesting
        raise DomainError(f"{path} is not a readable JSON document: {exc}") from None
    return CorrelationTensor.from_json_dict(data)


def _optimizer_config(args: argparse.Namespace) -> OptimizerConfig:
    return OptimizerConfig(random_starts=args.starts, seed=args.seed)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _scan_text(points: list[ScanPoint], fmt: str) -> str:
    rows = []
    for point in points:
        report = point.report
        fields = dict(asdict(report), N=report.n_parties, V=point.visibility, region=point.region)
        rows.append({column: fields[column] for column in SCAN_COLUMNS})
    if fmt == "json":
        return json.dumps(rows, indent=2)
    lines = [",".join(_csv_cell(value) for value in row.values()) for row in rows]
    return "\n".join([",".join(SCAN_COLUMNS)] + lines)


def _cmd_tensor(args: argparse.Namespace) -> tuple[str, bool]:
    tensor = ghz_planar_tensor(args.ghz, args.visibility)
    return json.dumps(tensor.to_json_dict(), indent=2), True


def _cmd_tmax(args: argparse.Namespace) -> tuple[str, bool]:
    tensor = _load_tensor(args.infile)
    result = t_max(tensor, _optimizer_config(args))
    payload = {
        "value": result.value,
        "maximizer": [list(d) for d in result.maximizer],
        "certified": result.certified,
    }
    return json.dumps(payload, indent=2), result.certified


def _cmd_check(args: argparse.Namespace) -> tuple[str, bool]:
    tensor = _load_tensor(args.infile)
    report = ri_criterion(tensor, _optimizer_config(args))
    return json.dumps(asdict(report), indent=2), report.certified


def _cmd_scan(args: argparse.Namespace) -> tuple[str, bool]:
    points = ghz_scan(args.ghz, args.v_min, args.v_max, args.steps)
    return _scan_text(points, args.format), True


def _cmd_verify_bound(args: argparse.Namespace) -> tuple[str, bool]:
    tensor = _load_tensor(args.infile)
    report = verify_bound(
        tensor,
        args.trials,
        seed=args.seed,
        include_optimal=not args.skip_optimal,
        config=_optimizer_config(args),
    )
    return json.dumps(asdict(report), indent=2), report.certified


def _add_optimizer_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="infile", required=True, metavar="FILE.json")
    sub.add_argument("--seed", type=int, default=OptimizerConfig.seed, help="master PRNG seed")
    sub.add_argument(
        "--starts", type=int, default=OptimizerConfig.random_starts, help="random multistart count"
    )
    sub.add_argument(
        "--require-certified",
        action="store_true",
        help="exit with code 3 unless the Fourier bound proves the T_max found",
    )


def _subcommand(sub, name: str, help: str, handler) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=handler, require_certified=False)  # tensor and scan have no such flag
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotbell",
        description="Rotational-invariance constraints on local realistic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "tensor", "emit a noisy-GHZ planar tensor as JSON", _cmd_tensor)
    p.add_argument("--ghz", type=int, required=True, metavar="N", help="party count")
    p.add_argument("--visibility", type=float, required=True, metavar="V")

    p = _subcommand(sub, "tmax", "maximize a tensor over planar settings", _cmd_tmax)
    _add_optimizer_flags(p)

    p = _subcommand(sub, "check", "evaluate the exclusion criterion for a tensor", _cmd_check)
    _add_optimizer_flags(p)

    p = _subcommand(sub, "scan", "scan the criterion over a visibility grid", _cmd_scan)
    p.add_argument("--ghz", type=int, required=True, metavar="N", help="party count")
    p.add_argument("--v-min", type=float, required=True)
    p.add_argument("--v-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="number of grid points")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = _subcommand(
        sub, "verify-bound", "stress-test the bound with random ensembles", _cmd_verify_bound
    )
    _add_optimizer_flags(p)
    p.add_argument("--trials", type=int, default=1000, metavar="T")
    p.add_argument(
        "--skip-optimal",
        action="store_true",
        help="do not add the saturating strategy to the trial set",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, certified = args.handler(args)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    except (RotbellError, OSError, MemoryError) as exc:  # MemoryError: counts too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_NOT_CERTIFIED if args.require_certified and not certified else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
