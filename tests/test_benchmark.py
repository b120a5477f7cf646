"""The traced benchmark stays runnable.

``perfbench/run.py --trace 1`` wraps every public function of the package
and derives per-call figures from the counts, so a change inside the
package can make it fail while every other test passes.  The traced
``cli`` run also looks up names such as ``triangle.act`` and the ``checks``
registry.  A zero-second run of each workload must still end in a result
line with ``"correct": true``.  It writes only under the git-ignored
``perfbench/out/``.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pipeline", "catalog", "cli"])
def test_traced_workload_runs_and_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ("shape.class_of", "triangle.from_sides"):
        assert metrics[f"{name}.calls"] > 0, (
            f"the traced {workload} op no longer calls {name}: "
            "perfbench/workloads.py:553 divides its self time by its call count")
    if workload == "catalog":
        # one canonical_rep per op: 3 blocks of 60 entries
        assert metrics["shape.canonical_rep.calls"] == metrics["traced_ops"] == 180
        # only the 18 doubled-simple ops have a zero side, and canonical_rep
        # reuses the orbit of its class: each is lifted once
        assert metrics["shape.lift_class.calls"] == 18
        # a doubled-simple orbit's images all share their angles; the side
        # moduli leave proj_dist only its 3 stabilizer elements past the identity
        assert metrics["shape.proj_dist.calls"] == 54
    if workload == "cli":
        # one class_of_vertices per row of `trace --family poncelet --samples 10000`
        calls = re.search(r"^shape\.class_of_vertices\.self_us .* \((\d+) calls, 0 failed\)$",
                          proc.stdout, re.MULTILINE)
        assert calls is not None and int(calls.group(1)) == 10_000
        # stdout is captured in the traced run, so selftest runs every check
        # in this process, where the tracer times it
        from trishape.checks import ALL_CHECKS

        for name, _ in ALL_CHECKS:
            seconds = re.search(rf"^checks\.{re.escape(name)}\.s (\S+) s$", proc.stdout,
                                re.MULTILINE)
            assert seconds is not None and float(seconds.group(1)) > 0, name
