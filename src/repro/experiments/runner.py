"""Command-line entry point for the experiment registry.

Every paper artifact maps to a callable; ``python -m
repro.experiments.runner fig18`` regenerates it from scratch. The
benchmark harness (``benchmarks/``) drives the same registry with
reduced budgets.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..cli import add_engine_arguments, engine_options
from .context import ExperimentContext
from .registry import EXPERIMENTS, run_experiment

__all__ = ["EXPERIMENTS", "run_experiment", "main"]


def _replay_tenants(
    tenants: int,
    backend: str,
    fault_profile: str,
    fault_seed: int,
    fleet: int = 0,
) -> int:
    """``--tenants N`` mode: replay the Table I mix through the compile
    service, N synthetic tenants each compiling the standard programs.
    ``--fleet M`` routes the same workload across M drifting replicas."""
    from ..service import RequestSpec, TenantConfig, replay_workload

    programs = ("GHZ_n4", "BV_n4", "QAOA_n5")
    workload = {
        f"tenant-{index}": [
            RequestSpec(
                program=program,
                shots=1024,
                probe_shots=256,
                drift_hours=2.0,
                backend=backend,
                fault_profile=fault_profile,
                fault_seed=fault_seed,
            )
            for program in programs
        ]
        for index in range(tenants)
    }
    from ..service import AngelService

    service = AngelService(
        num_workers=min(4, max(tenants, fleet or 1)),
        tenants=tuple(TenantConfig(name) for name in sorted(workload)),
        fleet=fleet or None,
    )
    try:
        outcomes = replay_workload(workload, service=service)
    finally:
        service.close()
    total = failed = probes = dedup_hits = 0
    for name in sorted(outcomes):
        slots = outcomes[name]
        done = [o for o in slots if not isinstance(o, BaseException)]
        probes += sum(o.probes_run for o in done)
        dedup_hits += sum(o.dedup_hits for o in done)
        total += len(slots)
        failed += len(slots) - len(done)
        print(
            f"{name}: {len(done)}/{len(slots)} requests, "
            f"{sum(o.probes_run for o in done)} probes, "
            f"{sum(o.dedup_hits for o in done)} dedup hits"
        )
    ratio = dedup_hits / probes if probes else 0.0
    print(
        f"total: {total} requests ({failed} failed), {probes} probes, "
        f"{dedup_hits} dedup hits ({ratio:.1%})"
    )
    report = service.fleet_report()
    if report is not None:
        for replica in report["replicas"]:
            print(
                f"{replica['name']}: {replica['placements']} requests, "
                f"{replica['jobs']} jobs, peak queue "
                f"{replica['peak_queue_depth']}"
            )
        router = report["router"]
        print(
            f"router: {router['migrations']} migrations, affinity-hit "
            f"ratio {router['affinity_hit_ratio']:.1%}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate paper artifacts by experiment id.",
        epilog="known experiments: " + ", ".join(sorted(EXPERIMENTS)),
    )
    parser.add_argument("ids", nargs="*", metavar="experiment-id")
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print each experiment's execution-service statistics",
    )
    add_engine_arguments(parser)
    parser.add_argument(
        "--tenants",
        type=int,
        metavar="N",
        help="replay the Table I mix through the compile service with N "
        "tenants instead of running experiments",
    )
    parser.add_argument(
        "--fleet",
        type=int,
        default=0,
        metavar="M",
        help="with --tenants: route across M drifting replicas",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI: ``python -m repro.experiments.runner [options] <id>...``.

    With ``--trace`` every experiment's spans go to the one file, in
    run order."""
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)
    if args.tenants is not None and args.tenants < 1:
        parser.error("--tenants must be >= 1")
    if args.fleet < 0:
        parser.error("--fleet must be >= 0")
    if args.tenants is not None:
        return _replay_tenants(
            args.tenants,
            args.backend,
            args.fault_profile,
            args.fault_seed,
            fleet=args.fleet,
        )
    if not args.ids:
        parser.print_help()
        return 0
    unknown = [i for i in args.ids if i not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    options = engine_options(args)
    # Experiments build their own default context unless a flag
    # changes it.
    needs_context = args.stats or options != engine_options(
        parser.parse_args([])
    )
    # One trace file for the whole run: every context appends to it.
    trace_file = (
        open(args.trace, "w", encoding="utf-8") if args.trace else None
    )
    options["trace"] = trace_file
    try:
        for experiment_id in args.ids:
            # Each experiment gets a fresh context (a fresh chip-day) so
            # the per-experiment executor ledger is attributable to it
            # alone.
            context = (
                ExperimentContext.create(**options) if needs_context else None
            )
            try:
                result = run_experiment(experiment_id, context=context)
                print(result.to_text())
                if context is not None and args.stats:
                    print("--- execution-service stats ---")
                    print(context.executor.stats.to_text())
            finally:
                if context is not None:
                    context.close()
            if args.metrics and context is not None:
                print("--- metrics ---")
                print(context.metrics_registry.to_text())
            print()
    finally:
        if trace_file is not None:
            trace_file.close()
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
