"""Command line: ``python -m bench run`` and ``python -m bench compare``.

``run`` measures the selected workloads (all five by default) with
tracing off, or with ``--trace 1`` runs the traced pass instead.  It
prints a table per workload and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics under
``--trace 1``, whose span trees go to ``bench/out/trace.json``); end-to-end
times and rates are scaled to the host's speed (see ``bench.host``).  With
several workloads the metric names are prefixed by the workload.  It exits
1 when any request failed or any answer was wrong.

``compare BASE NEW`` compares two ``run --out`` reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", dest="workloads",
                     help="workload name (repeatable; default: all five)")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=Path, help="write the full report JSON here")
    compare = commands.add_parser("compare", help="compare two run reports")
    compare.add_argument("base")
    compare.add_argument("new")
    return parser


def _print_run(report) -> None:
    host = report["host"]
    print(f"host: median probe round trip {host['rtt_us_median']:.2f} us, "
          f"times scaled by {host['scale']:.4f} (to {host['nominal_rtt_us']} us)")
    for name, result in report["workloads"].items():
        print(f"== {name}: {result['attempted']} requests, {result['failed']} failed")
        for metric, summary in result["metrics"].items():
            print(
                f"   {metric:<16} {summary['median']:>10.4g} {summary['unit']:<6} "
                f"IQR {summary['iqr']:.3g}  raw {[round(v, 4) for v in summary['raw_values']]}"
            )
        print(f"   host.ref_loop_ms per slice: {[round(s['ref_loop_ms'], 1) for s in result['slices']]}")
        for sample in result["error_samples"]:
            print(f"   ! {sample}")


def _print_trace(report) -> None:
    for name, result in report["workloads"].items():
        decomposition = result["decomposition"]
        total = decomposition["total_ms"]
        print(f"== {name}: traced sample of {result['attempted']} requests, "
              f"{result['failed']} failed, tracing overhead "
              f"{result['tracing_overhead'] * 100:+.1f}%")
        print(f"   HTTP round trip {total:.3f} ms/request =")
        for row, ms in decomposition["remote"]:
            print(f"     {row:<22} {ms:>9.3f} ms  {ms / total * 100:>6.1f}%")
        service = decomposition["service_ms"]
        print(f"   service time {service:.3f} ms/request (bench process, collector paused) =")
        for row, ms in decomposition["local"]:
            print(f"     {row:<22} {ms:>9.3f} ms  {ms / service * 100:>6.1f}%")
        print(f"   worker time per read beyond the same service call here: "
              f"{decomposition['worker_gap_ms']:.3f} ms")
        print("   per call:")
        for metric, value in sorted(result["metrics"].items()):
            print(f"     {metric:<32} {value:.4g}")
        for sample in result["error_samples"]:
            print(f"   ! {sample}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench.runner import benchmark_config, run
    from bench.workloads import WORKLOADS

    benchmark = benchmark_config()
    if args.command == "compare":
        from bench import compare

        return compare.main(args.base, args.new, benchmark)

    names = args.workloads or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; known: {list(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        from bench.layers import traced_run

        report = traced_run(names, args.seed, ROOT / "bench" / "out" / "trace.json")
        _print_trace(report)
        wanted = benchmark["per_layer"]
        value = lambda result, name: result["metrics"][name]  # noqa: E731
    else:
        seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
        report = run(names, args.seed, seconds)
        _print_run(report)
        wanted = benchmark["end_to_end"]
        value = lambda result, name: result["metrics"][name]["median"]  # noqa: E731
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    results = report["workloads"]
    metrics = {}
    for name, result in results.items():
        for metric in wanted:
            key = metric["name"] if len(results) == 1 else f"{name}.{metric['name']}"
            metrics[key] = {"value": value(result, metric["name"]), "unit": metric["unit"]}
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
