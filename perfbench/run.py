"""trishape benchmark: one command for every workload, metric and check.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload pipeline|catalog|cli --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics from a traced run.  Human-readable lines
come first (every metric by name and unit, the sample counts and the
fail ratio with its base); the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Full detail and the span
dump go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def defect_line(defect: dict) -> str:
    kinds = ", ".join(f"{n} {kind}" for kind, n in defect["by_kind"].items())
    return (
        f"known defect: canonical_rep splits copies in {defect['split']} of"
        f" {defect['of']} sampled ops ({kinds}); untimed, not in attempted"
    )


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import workloads

    if workload == "cli":
        run = workloads.run_cli(ROOT, seconds)
    else:
        run = workloads.run_ops(ROOT, workload, seed, seconds)
    setup = run["setup_s"]
    lat = run["latency"]
    metrics = {
        "setup_s": _metric(run["steady_setup_s"], "s"),
        "steady_ops_per_s": _metric(run["steady_ops_per_s"], "1/s"),
        "steady_op_us": _metric(run["steady_op_us"], "us"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"ops_per_s {run['ops_per_s']:.6g} 1/s  (over all {run['busy_s']:.4g} s timed)")
    lines.append(f"op_p50_us {lat['p50_us']:.6g} us  ({lat['samples']} samples)")
    if lat["tail_level"] >= 99.0:
        lines.append(f"op_p99_us {lat['p99_us']:.6g} us  ({lat['samples']} samples)")
    if lat["tail_level"] > 99.0:
        lines.append(
            f"op_p{lat['tail_level']:g}_us {lat['tail_us']:.6g} us  (highest percentile"
            f" with >= 10 of {lat['samples']} samples beyond it)"
        )
    lines.append(
        f"fail_ratio {run['failed'] / run['attempted']:.6g}"
        f"  ({run['failed']} of {run['attempted']} ops)"
    )
    lines.append(
        f"setup probes {len(setup)}, median {statistics.median(setup):.6g} s as measured:"
        + "".join(f" {t:.4f}" for t in setup)
    )
    lines.append(
        f"setup_s and steady_* on the baseline machine (reference slice"
        f" {workloads.REF_SLICE_NS / 1e3:g} us); this run: {run['reference_slices']} slices,"
        f" fastest {run['fastest_slice_us']:.6g} us, median {run['median_slice_us']:.6g} us"
    )
    if workload == "cli":
        lines.append(f"peak_rss_mb is the largest child's, over {run['attempted']} rounds")
    else:
        lines.append(
            f"steady_* over {run['blocks']} blocks;"
            f" peak_rss_mb mean of {len(run['probe_rss_mb'])} probes: "
            + " ".join(f"{m:.3f}" for m in run["probe_rss_mb"])
        )
    if workload == "cli":
        for name, wall in run["commands_s"].items():
            lines.append(f"cli.{name.replace('-', '_')}_s {wall:.6g} s  (median of {run['attempted']})")
    if run.get("known_defect") is not None:
        lines.append(defect_line(run["known_defect"]))
    for problem in run["problems"][:10]:
        lines.append(f"FAILED {problem}")
    detail = dict(run, problems=run["problems"][:100])
    return {"metrics": metrics, "attempted": run["attempted"], "failed": run["failed"],
            "correct": run["failed"] == 0, "lines": lines}, detail


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import workloads

    run = workloads.run_traced(workload, seed, seconds, OUT / f"{workload}-spans.bin.gz")
    values, detail = workloads.layer_metrics(workload, run)
    repeat = workloads.counts_repeat(run["passes"])
    metrics = {name: _metric(v, unit) for name, (v, unit) in values.items()}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    for name, f in sorted(detail["functions"].items()):
        lines.append(f"{name}.self_us {f['self_us']:.6g} us  ({f['calls']} calls, {f['fail']} failed)")
    for name, value in detail.items():
        if name.startswith(("checks.", "cli.")):
            lines.append(f"{name} {value:.6g} s")
    lines.append(f"traced passes {detail['passes']}, counts repeat: {repeat}")
    lines.append(
        f"fail_ratio {run['failed'] / run['attempted']:.6g}"
        f"  ({run['failed']} of {run['attempted']} ops)"
    )
    if run.get("known_defect") is not None:
        lines.append(defect_line(run["known_defect"]))
    for problem in run["problems"][:10]:
        lines.append(f"FAILED {problem}")
    detail["known_defect"] = run.get("known_defect")
    detail["counts_repeat"] = repeat
    detail["problems"] = run["problems"][:100]
    return {"metrics": metrics, "attempted": run["attempted"], "failed": run["failed"],
            "correct": run["failed"] == 0 and repeat, "lines": lines}, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("pipeline", "catalog", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trishape" / "__init__.py").is_file():
        print(f"error: no trishape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    measure = per_layer if args.trace else end_to_end
    result, detail = measure(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in result["lines"]:
        print(line)
    OUT.mkdir(exist_ok=True)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    kind = "trace" if args.trace else "result"
    with open(OUT / f"{args.workload}-{kind}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
