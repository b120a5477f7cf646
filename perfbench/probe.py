"""Set-up time and peak memory of one fresh process.

Usage (from the repository root, with PYTHONPATH=src:perfbench/rsshook):
    python3 perfbench/probe.py pipeline|catalog|cli SEED
Prints the seconds from before the import of trishape to after one
warm-up op; for cli, the import of trishape.cli alone.  Then the process
runs the first RSS_BLOCKS blocks of the seeded stream (cli: none, as its
commands run in processes of their own), so that the peak resident set
that rsshook reports at exit is that of the workload's work.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

#: blocks run after set-up: 500 pipeline ops or 60 catalog ops
RSS_BLOCKS = {"pipeline": 10, "catalog": 1}

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "cli":
    import trishape.cli  # noqa: E402,F401

    print(time.perf_counter() - T0)
else:
    import ops  # noqa: E402  (imports trishape)
    from generators import Shape  # noqa: E402

    warmup = Shape("nondegenerate", (0j, 1 + 0j, 0.3 + 0.9j))
    if workload == "pipeline":
        ops.pipeline_op(warmup)
    else:
        ops.catalog_op(ops.make_triangle(warmup))
    print(time.perf_counter() - T0)

    import random  # noqa: E402

    import generators  # noqa: E402

    def run(op, x):
        try:
            return op(x)
        except Exception as exc:  # the timed run counts it as a failed op
            return exc

    rng = random.Random(seed)
    outs = []
    for k in range(RSS_BLOCKS[workload]):
        if workload == "pipeline":
            outs += [run(ops.pipeline_op, s) for s in generators.pipeline_block(rng)]
        else:
            entries = generators.catalog_block(rng, k * generators.catalog_block_size())
            outs += [run(ops.catalog_op, ops.make_triangle(s)) for _, s in entries]
