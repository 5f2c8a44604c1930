"""Command-line front end.

Subcommands:

* ``run`` - a download-completion-time matrix over a path preset or a
  Latin-hypercube sample of paths, written as CSV (optionally JSON).
* ``compare`` - pair two run CSVs cell by cell and emit the DCT ratio
  table with its empirical CDF and summary row.
* ``fairness`` - the shared-bottleneck contention study.
* ``losstrace`` - the raw decision sequence of a loss model.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Mapping, Optional, Sequence

from . import experiments as xp
from .transport import RECOVERED_STRATEGIES, STRATEGY_RECOVERED_FRAME


def _named_list(table: Mapping[str, object], kind: str, text: str) -> dict:
    """The entries of ``table`` named in the comma list ``text``, in the
    order given (the argument type of ``--sizes`` and ``--variants``)."""
    picked = {}
    for name in text.split(","):
        name = name.strip()
        if name not in table:
            known = ",".join(table)
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {name!r} (known: {known})"
            )
        picked[name] = table[name]
    return picked


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fecsim",
        description="Erasure-coded transport emulation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a completion-time matrix")
    source = run.add_mutually_exclusive_group()
    source.add_argument(
        "--preset",
        help="named path preset (da2gc or mss)",
    )
    source.add_argument(
        "--ranges",
        help=(
            "sample paths by Latin hypercube instead; the file overrides "
            "bounds as <dimension>_min/_max lines (empty file = defaults)"
        ),
    )
    run.add_argument(
        "--samples",
        type=int,
        default=10,
        help="number of sampled paths when using --ranges (default 10)",
    )
    run.add_argument("--seed", type=int, default=0, help="base seed")
    run.add_argument(
        "--sizes",
        type=partial(_named_list, xp.SIZES, "size"),
        default=None,
        help="comma list of transfer sizes (default 1k,10k,50k,1m)",
    )
    run.add_argument(
        "--variants",
        type=partial(_named_list, xp.VARIANTS, "variant"),
        default=None,
        help="comma list of protocol variants (default baseline,rs,rlc)",
    )
    run.add_argument(
        "--reps",
        type=int,
        default=xp.DEFAULT_REPS,
        help=f"repetitions per cell (default {xp.DEFAULT_REPS})",
    )
    run.add_argument(
        "--strategy",
        choices=sorted(RECOVERED_STRATEGIES),
        default=STRATEGY_RECOVERED_FRAME,
        help="recovery signalling strategy for FEC variants",
    )
    run.add_argument(
        "--out", default="results.csv", help="output CSV path ('-' = stdout)"
    )
    run.add_argument(
        "--json", default=None, help="also write a JSON mirror to this path"
    )

    compare = sub.add_parser(
        "compare", help="ratio table between two run CSVs (DCT_a / DCT_b)"
    )
    compare.add_argument("--a", required=True, help="numerator run CSV")
    compare.add_argument("--b", required=True, help="denominator run CSV")
    compare.add_argument(
        "--out", default="ratios.csv", help="output CSV path ('-' = stdout)"
    )

    fairness = sub.add_parser(
        "fairness", help="shared-bottleneck contention study"
    )
    fairness.add_argument("--seed", type=int, default=0, help="base seed")
    fairness.add_argument(
        "--count", type=int, default=9, help="seeds per background behaviour"
    )
    fairness.add_argument(
        "--out", default="fairness.csv", help="output CSV path ('-' = stdout)"
    )

    losstrace = sub.add_parser(
        "losstrace", help="print a loss model's decision sequence"
    )
    losstrace.add_argument(
        "--model", choices=("uniform", "ge"), required=True
    )
    losstrace.add_argument(
        "--params",
        type=_float_list,
        required=True,
        help="comma list: uniform takes p, ge takes p,r,k,h",
    )
    losstrace.add_argument("--seed", type=int, default=0)
    losstrace.add_argument("--count", type=int, default=100)
    losstrace.add_argument(
        "--out", default="-", help="output path (default stdout)"
    )
    return parser


def cmd_run(args) -> int:
    if args.ranges is not None:
        box = xp.parse_ranges_file(args.ranges)
        scenarios = xp.lhs_scenarios(args.seed, args.samples, box)
    else:
        scenarios = [xp.preset(args.preset or "da2gc")]
    sizes = args.sizes if args.sizes is not None else dict(xp.SIZES)
    variants = (
        args.variants
        if args.variants is not None
        else {name: xp.VARIANTS[name] for name in xp.DEFAULT_VARIANTS}
    )
    records = xp.run_matrix(
        scenarios,
        variants,
        sizes,
        reps=args.reps,
        base_seed=args.seed,
        strategy=args.strategy,
    )
    xp.write_run_csv(records, args.out)
    if args.json is not None:
        xp.write_run_json(records, args.json)
    failed = sum(1 for r in records if r.dct_us is None)
    if failed:
        print(
            f"warning: {failed} cell(s) never completed and carry no median",
            file=sys.stderr,
        )
    return 0


def cmd_compare(args) -> int:
    result = xp.compare_records(
        xp.read_run_csv(args.a), xp.read_run_csv(args.b)
    )
    xp.write_compare_csv(result, args.out)
    if result.dropped:
        print(
            f"warning: {result.dropped} cell(s) dropped (incomplete runs)",
            file=sys.stderr,
        )
    return 0


def cmd_fairness(args) -> int:
    runs, medians = xp.fairness_experiment(args.seed, args.count)
    xp.write_fairness_csv(runs, medians, args.out)
    return 0


def cmd_losstrace(args) -> int:
    if args.model == "uniform" and len(args.params) != 1:
        raise SystemExit("uniform loss takes exactly one parameter: p")
    if args.model == "ge" and len(args.params) != 4:
        raise SystemExit("ge loss takes exactly four parameters: p,r,k,h")
    model = xp.LossSpec(args.model, *args.params).make(args.seed)
    with xp.open_output(args.out) as fh:
        for line in xp.loss_trace_lines(model, args.count):
            fh.write(line + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "fairness": cmd_fairness,
        "losstrace": cmd_losstrace,
    }
    try:
        return handlers[args.command](args)
    except xp.UnknownPreset as exc:
        raise SystemExit(f"unknown preset: {exc.args[0]}")
    except (xp.ConfigMismatch, ValueError, OSError) as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
