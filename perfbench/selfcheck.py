"""Checks that the benchmark's own checks are not vacuous.

Usage, from the root of a checkout:
    python3 perfbench/selfcheck.py

1. A planted fault raises the failure count on every workload, on the same
   fixed seeded batch: class_of's angles are moved by 1e-6 on pipeline and
   catalog; on cli, one CSV row of the trace command's output is corrupted
   and the last row of emit-figure's is dropped, and each must be caught.
2. Two traced runs of each workload with the same seed give identical
   counts, and the per-orbit and per-row counts match the baseline recorded
   in perfbench/baseline.json.
Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from trishape import angles, shape  # noqa: E402

SEED = 1


def planted_class_of():
    original = shape.class_of

    def perturbed(T):
        c = original(T)
        moved = tuple(angles.AngleModPi(float(x) + 1e-6) for x in c.angles)
        return shape.ShapeClass(sides=c.sides, angles=moved)

    return original, perturbed


def batch_failures(workload: str) -> int:
    """Failed ops on one fixed seeded batch (cli: wrong commands of one round)."""
    if workload == "cli":
        return len(workloads.run_cli(ROOT, 0.0)["problems"])
    items, inputs = workloads.trace_batch(workload, SEED)
    outs, _, _ = workloads.run_batch(workloads.op_for(workload), inputs)
    return sum(workloads.failed_flags(workload, items, outs))


def fault_failures(workload: str) -> tuple[int, int]:
    """(failed ops without, with the planted faults) on the same batch."""
    clean = batch_failures(workload)
    if workload == "cli":
        original = workloads.spawn_cli

        def corrupted(root, argv):
            res = original(root, argv)
            if argv[0] == "trace":
                lines = res["text"].split("\n")
                row = lines[5].split(",")
                row[-1] = repr(float(row[-1]) + 1e-6)
                lines[5] = ",".join(row)
                res["text"] = "\n".join(lines)
            elif argv[0] == "emit-figure":
                res["text"] = "\n".join(res["text"].split("\n")[:-2]) + "\n"
            return res

        workloads.spawn_cli = corrupted
        try:
            return clean, batch_failures(workload)
        finally:
            workloads.spawn_cli = original
    original, perturbed = planted_class_of()
    shape.class_of = perturbed
    try:
        return clean, batch_failures(workload)
    finally:
        shape.class_of = original


def traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    baseline = json.loads((HERE / "baseline.json").read_text())["exact_counts"]
    ok = True
    for workload in ("pipeline", "catalog", "cli"):
        clean, faulted = fault_failures(workload)
        print(f"{workload}: failed ops {clean} clean, {faulted} with a planted fault")
        ok &= faulted >= clean + (2 if workload == "cli" else 1)
        first, second = traced_counts(workload), traced_counts(workload)
        same = first == second
        print(f"{workload}: two traced runs give identical counts: {same}")
        ok &= same
        for name, want in baseline.get(workload, {}).items():
            got = round(first[name], 3)
            print(f"{workload}: {name} = {got} (baseline {want})")
            ok &= got == want
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
