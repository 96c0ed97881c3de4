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

from .checkpoint import (
    CHECKPOINT_EXIT_CODE,
    CheckpointFormatError,
    CheckpointMismatchError,
    RunInterrupted,
)
from .rapids.report import Table1Row, averages
from .suite.flow import FlowConfig, run_benchmark, run_suite
from .suite.registry import (
    PAPER_AVERAGES,
    REGISTRY,
    UnknownBenchmarkError,
    benchmark_names,
    synthetic_names,
)


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
    """The flow knobs ``table1`` and ``bench`` share."""
    return FlowConfig(
        scale=args.scale,
        check_equivalence=args.verify,
        workers=args.workers,
        sim_backend=args.sim_backend,
        wl_passes=args.wl_passes,
        wl_batched=args.wl_batched,
        wl_timing_aware=args.wl_timing_aware,
        wl_slack_margin=args.wl_slack_margin,
        partition=args.partition,
        partition_max_gates=args.partition_max_gates,
        checkpoint=args.checkpoint,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    config = _flow_config(args)
    names = args.names or benchmark_names()
    print(Table1Row.HEADER)
    rows = []

    def progress(outcome) -> None:
        rows.append(outcome.row)
        print(outcome.row.format())
        sys.stdout.flush()

    run_suite(names, config, progress=progress)
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
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _flow_config(args)
    outcome = run_benchmark(args.name, config)
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
    return 0


def _cmd_symmetries(args: argparse.Namespace) -> int:
    from .network.bench_io import read_bench
    from .network.blif import read_blif
    from .symmetry.redundancy import find_easy_redundancies, redundancy_counts
    from .symmetry.supergate import extract_supergates
    from .symmetry.swap import count_swappable_pairs

    with open(args.file) as handle:
        if args.file.endswith(".bench"):
            network = read_bench(handle)
        else:
            network = read_blif(handle)
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


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``rapids`` console script."""
    parser = argparse.ArgumentParser(
        prog="rapids",
        description="RAPIDS (DAC 2000) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="registered benchmarks")
    p_list.set_defaults(func=_cmd_list)

    def _optimizer_knobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="processes selecting partitioned-polish regions; used "
                 "with --partition, the trajectory is bit-identical for "
                 "every N (default: 1, serial)",
        )
        p.add_argument(
            "--sim-backend", default="auto",
            choices=["auto", "bigint", "numpy"],
            help="simulation backend for equivalence sweeps; 'auto' "
                 "picks bigint for deep narrow logic and numpy for wide "
                 "shallow blocks from the compiled sweep shape "
                 "(default: auto)",
        )
        p.add_argument(
            "--wl-passes", type=int, default=1, metavar="N",
            help="append N Section-5 wirelength-rewiring passes after "
                 "timing optimization: symmetric signals are exchanged "
                 "to shorten estimated wires, placement untouched "
                 "(default: 1 — the timing-aware slack gate makes the "
                 "polish delay-safe; 0 skips it)",
        )
        p.add_argument(
            "--wl-batched", action=argparse.BooleanOptionalAction,
            default=True,
            help="score each wirelength pass's full candidate set as "
                 "one vectorized batch and commit a conflict-free "
                 "subset; --no-wl-batched runs the serial greedy "
                 "reference instead (default: batched)",
        )
        p.add_argument(
            "--wl-timing-aware", action=argparse.BooleanOptionalAction,
            default=True,
            help="gate every wirelength swap on its projected slack "
                 "neighborhood staying above the guard band; "
                 "--no-wl-timing-aware restores the HPWL-only "
                 "objective (default: timing-aware)",
        )
        p.add_argument(
            "--wl-slack-margin", type=float, default=0.0, metavar="NS",
            help="guard band in ns for the timing-aware wirelength "
                 "gate: 0.0 never degrades the re-timed delay, "
                 "negative values trade bounded delay for wire, "
                 "positive values keep a safety band (default: 0.0)",
        )
        p.add_argument(
            "--partition", action=argparse.BooleanOptionalAction,
            default=False,
            help="run the wirelength polish region-bounded: FM-carve "
                 "the placed netlist into regions with frozen boundary "
                 "nets, select per region (concurrently with "
                 "--workers), commit through the serial conflict-free "
                 "committer — the 1e5+ gate path (default: off)",
        )
        p.add_argument(
            "--partition-max-gates", type=int, default=2500, metavar="N",
            help="region size cap for the partitioned carve; large "
                 "enough for one region reproduces the unpartitioned "
                 "trajectory bit-for-bit (default: 2500)",
        )
        p.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="save resume state to PATH.<mode> at flow boundaries "
                 "and on SIGTERM; an interrupted run exits with status "
                 "75 (EX_TEMPFAIL) after a clean save (default: off)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="reload --checkpoint files and continue interrupted "
                 "runs from the saved cursor; the finished run is "
                 "bit-identical to an uninterrupted one (missing "
                 "checkpoints just run fresh)",
        )
        p.add_argument(
            "--checkpoint-every", type=int, default=1, metavar="N",
            help="save only every N-th flow boundary (SIGTERM always "
                 "saves at the next boundary; default: 1)",
        )

    p_table = sub.add_parser("table1", help="reproduce Table 1")
    p_table.add_argument("names", nargs="*", help="subset of benchmarks")
    p_table.add_argument("--scale", type=float, default=None)
    p_table.add_argument("--verify", action="store_true",
                         help="check functional equivalence per mode")
    _optimizer_knobs(p_table)
    p_table.set_defaults(func=_cmd_table1)

    p_bench = sub.add_parser("bench", help="one benchmark, verbose")
    p_bench.add_argument("name")
    p_bench.add_argument("--scale", type=float, default=None)
    p_bench.add_argument("--verify", action="store_true")
    _optimizer_knobs(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_sym = sub.add_parser(
        "symmetries", help="supergate census of a BLIF/.bench file"
    )
    p_sym.add_argument("file")
    p_sym.set_defaults(func=_cmd_symmetries)

    args = parser.parse_args(argv)
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
