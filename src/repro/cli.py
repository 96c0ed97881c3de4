"""Command-line front end: ``rapids <command>``.

Commands:

* ``table1 [names...]``   — run the Section 6 flow and print Table 1
* ``bench <name>``        — one benchmark, verbose per-mode report
* ``symmetries <file>``   — extract supergates / swappable pins from a
  BLIF or .bench netlist and print the census
* ``list``                — registered benchmarks with paper reference
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .checkpoint import (
    CHECKPOINT_EXIT_CODE,
    CheckpointFormatError,
    CheckpointMismatchError,
    RunInterrupted,
)
from .config import FlowConfig, option_string, shown_default
from .rapids.report import Table1Row, averages
from .suite.flow import run_benchmark, run_suite
from .suite.registry import (
    PAPER_AVERAGES,
    REGISTRY,
    UnknownBenchmarkError,
    benchmark_names,
    synthetic_names,
)


def _knob_flags():
    """``(option, add_argument keywords)`` per flagged FlowConfig field."""
    for spec in fields(FlowConfig):
        name, meta = option_string(spec), spec.metadata
        if name is None:
            continue
        kwargs = {"dest": spec.name, "default": spec.default,
                  "help": f"{meta['help']} (default: {shown_default(spec)})"}
        if meta["negatable"]:
            kwargs["action"] = argparse.BooleanOptionalAction
        elif spec.type == "bool":
            kwargs.update(action="store_true", help=meta["help"])
        else:
            parse = {"int": int, "float": float}.get(spec.type.split(" |")[0])
            kwargs.update(metavar=meta["metavar"], choices=meta["choices"],
                          type=parse)
        yield name, kwargs


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'name':<10}{'family':<12}{'paper gates':>12}{'init ns':>9}")
    for name in benchmark_names():
        spec = REGISTRY[name]
        print(
            f"{name:<10}{spec.family:<12}{spec.paper.gates:>12}"
            f"{spec.paper.init_ns:>9.1f}"
        )
    for name in synthetic_names():
        spec = REGISTRY[name]
        print(
            f"{name:<10}{spec.family:<12}{spec.paper.gates:>12}"
            f"{'--':>9}"
        )
    return 0


def _flow_config(args: argparse.Namespace) -> FlowConfig:
    """The flow knobs ``table1`` and ``bench`` share, from their flags."""
    return FlowConfig(**{
        spec.name: getattr(args, spec.name)
        for spec in fields(FlowConfig) if option_string(spec)
    })


def _cmd_table1(args: argparse.Namespace) -> int:
    names = args.names or benchmark_names()
    print(Table1Row.HEADER)
    rows = []

    def progress(outcome) -> None:
        rows.append(outcome.row)
        print(outcome.row.format())
        sys.stdout.flush()

    outcomes = run_suite(names, args.config, progress=progress)
    avg = averages(rows)
    print(
        f"{'ave.':<10}{'':>7}{'':>7}"
        f"{avg['gsg_percent']:>7.1f}{avg['gs_percent']:>7.1f}"
        f"{avg['gsg_gs_percent']:>7.1f}{'':>22}"
        f"{avg['gs_area_percent']:>7.1f}{avg['gsg_gs_area_percent']:>8.1f}"
        f"{avg['coverage_percent']:>7.1f}"
    )
    print(
        "paper ave.        "
        f" gsg {PAPER_AVERAGES['gsg_percent']:.1f}"
        f"  GS {PAPER_AVERAGES['gs_percent']:.1f}"
        f"  gsg+GS {PAPER_AVERAGES['gsg_gs_percent']:.1f}"
        f"  areas {PAPER_AVERAGES['gs_area_percent']:.1f}/"
        f"{PAPER_AVERAGES['gsg_gs_area_percent']:.1f}"
        f"  cov {PAPER_AVERAGES['coverage_percent']:.1f}"
    )
    return max([_refuted(outcome) for outcome in outcomes], default=0)


def _cmd_bench(args: argparse.Namespace) -> int:
    outcome = run_benchmark(args.name, args.config)
    print(f"benchmark {args.name} (scale {outcome.scale})")
    print(f"  gates {len(outcome.network)}  depth "
          f"{outcome.network.depth()}  hpwl {outcome.hpwl:.0f} um")
    print(f"  initial delay {outcome.initial_delay:.3f} ns  "
          f"area {outcome.initial_area:.0f} um^2")
    for key, value in sorted(outcome.stats.items()):
        print(f"  {key}: {value:.1f}")
    for mode, result in outcome.results.items():
        print(
            f"  {mode:7s} {result.optimize.initial_delay:.3f} -> "
            f"{result.optimize.final_delay:.3f} ns "
            f"({result.improvement_percent:+.1f}%), area "
            f"{result.area_delta_percent:+.1f}%, "
            f"{result.optimize.moves_applied} moves, "
            f"{result.runtime_seconds:.1f}s"
            + (
                f", equivalent={result.equivalent}"
                if result.equivalent is not None else ""
            )
        )
        if result.wirelength is not None:
            wl = result.wirelength
            guard = (
                f", slack-guarded (margin {wl.slack_margin:g} ns, "
                f"{wl.timing_rejected} rejected)"
                if wl.timing_aware else ""
            )
            print(
                f"          wirelength ({wl.mode}): "
                f"{wl.initial_hpwl:.0f} -> {wl.final_hpwl:.0f} um "
                f"({wl.improvement_percent:+.1f}%), "
                f"{wl.swaps_applied} swaps + {wl.cross_swaps_applied} "
                f"cross in {wl.passes} passes" + guard
            )
    return _refuted(outcome)


def _refuted(outcome) -> int:
    """1 after naming each mode whose netlist the equivalence check
    refuted, on stderr; 0 when none was (or none was checked)."""
    failed = [mode for mode, result in outcome.results.items()
              if result.equivalent is False]
    for mode in failed:
        print(f"rapids: {outcome.name}: {mode} netlist is not equivalent "
              "to its input", file=sys.stderr)
    return 1 if failed else 0


def _refuse(path: str, problem: str) -> int:
    print(f"rapids: {path}: {problem}", file=sys.stderr)
    return 2


def _cmd_symmetries(args: argparse.Namespace) -> int:
    from .network.bench_io import read_bench
    from .network.blif import read_blif
    from .network.netlist import NetworkError
    from .network.validate import check_network
    from .symmetry.redundancy import find_easy_redundancies, redundancy_counts
    from .symmetry.supergate import extract_supergates
    from .symmetry.swap import count_swappable_pairs

    reader = {".bench": read_bench, ".blif": read_blif}.get(
        Path(args.file).suffix
    )
    if reader is None:
        return _refuse(args.file, "not a .blif or .bench netlist")
    try:
        with open(args.file, encoding="utf-8") as handle:
            network = reader(handle)
        check_network(network)
    except OSError as exc:
        return _refuse(args.file, exc.strerror or str(exc))
    except (NetworkError, UnicodeDecodeError) as exc:
        return _refuse(args.file, str(exc))
    if not network.outputs:
        return _refuse(args.file, "netlist has no primary outputs")
    sgn = extract_supergates(network)
    print(f"{network.name}: {len(network)} gates, "
          f"{len(sgn.supergates)} supergates")
    for key, value in sorted(sgn.stats().items()):
        print(f"  {key}: {value}")
    for key, value in count_swappable_pairs(sgn).items():
        print(f"  {key}: {value}")
    for key, value in redundancy_counts(
        find_easy_redundancies(network, sgn)
    ).items():
        print(f"  redundancy_{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``rapids`` parser; the flow knobs' flags come from FlowConfig."""
    parser = argparse.ArgumentParser(
        prog="rapids",
        description="RAPIDS (DAC 2000) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="registered benchmarks")
    p_list.set_defaults(func=_cmd_list)

    p_table = sub.add_parser("table1", help="reproduce Table 1")
    p_table.add_argument("names", nargs="*", help="subset of benchmarks")
    p_table.set_defaults(func=_cmd_table1)

    p_bench = sub.add_parser("bench", help="one benchmark, verbose")
    p_bench.add_argument("name")
    p_bench.set_defaults(func=_cmd_bench)

    for flow_parser in (p_table, p_bench):
        for option, kwargs in _knob_flags():
            flow_parser.add_argument(option, **kwargs)

    p_sym = sub.add_parser(
        "symmetries", help="supergate census of a BLIF/.bench file"
    )
    p_sym.add_argument("file")
    p_sym.set_defaults(func=_cmd_symmetries)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``rapids`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("table1", "bench"):
        try:
            args.config = _flow_config(args)
            args.config.effective_scale()  # a bad REPRO_SCALE, named
        except ValueError as exc:  # a knob out of range, named
            parser.error(str(exc))
    try:
        return args.func(args)
    except UnknownBenchmarkError as exc:
        print(f"rapids: {exc.args[0]}", file=sys.stderr)
        return 2
    except (CheckpointFormatError, CheckpointMismatchError) as exc:
        print(f"rapids: {exc}", file=sys.stderr)
        return 2
    except RunInterrupted as exc:
        print(f"rapids: {exc}", file=sys.stderr)
        return CHECKPOINT_EXIT_CODE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
