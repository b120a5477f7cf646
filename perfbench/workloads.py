"""The three workloads, untraced and traced.

Each workload runs in this one process and thread (the cli workload spawns
one command at a time and waits for it).  An untraced run times ops for
``seconds`` and reports end-to-end numbers; a traced run alternates an
untraced and a traced pass over a fixed seeded batch, so its counts repeat
exactly, and reports per-layer numbers.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import generators
import oracle
import ops
from rsshook.sitecustomize import MARK
from tracing import LAYERS, Tracer, median_or_zero

#: op inputs of a traced pass: 40 pipeline blocks (2000 triangles), or
#: 3 catalog blocks (60 base shapes, 180 entries)
TRACE_BLOCKS = {"pipeline": 40, "catalog": 3}

#: fresh processes per run for setup_s (the run reports their median) and
#: peak_rss_mb (their mean)
SETUP_PROBES = 31

#: steps of one slice of the reference job
REF_STEPS = 4000

#: the time of one reference slice on the machine the steady metrics are
#: expressed for: the fastest slice seen on the 2-vCPU VM at 2.1 GHz,
#: Python 3.11, that recorded the baseline
REF_SLICE_NS = 3.0e6

#: reference slices run before and after each cli command (about 25 ms each
#: side)
CLI_REF_SLICES = 8

#: blocks of generators.KNOWN_DEFECT_MIX in a catalog run's known-defect
#: sample: 35 base shapes, 105 ops
DEFECT_BLOCKS = 5

#: the environment of every Python process the benchmark spawns: trishape
#: from src, and rsshook, which reports the process's own peak RSS at exit
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(("src", os.path.join("perfbench", "rsshook")))
)


# ---------------------------------------------------------------------------
# pipeline and catalog inputs


def blocks(workload: str, seed: int):
    """Endless (check items, op inputs) blocks of the workload's seeded stream."""
    rng = random.Random(seed)
    base_id = 0
    while True:
        if workload == "pipeline":
            block = generators.pipeline_block(rng)
            yield block, block
        else:
            entries = generators.catalog_block(rng, base_id)
            base_id += generators.catalog_block_size()
            yield entries, [ops.make_triangle(s) for _, s in entries]


def known_defect(seed: int) -> dict:
    """The catalog check on a fixed seeded sample of the kinds whose copies
    the current canonical_rep can split (generators.KNOWN_DEFECT_MIX).
    Untimed, and outside the workload's op count, so the defect stays in
    view while every op of the workload itself is correct."""
    rng = random.Random(seed)
    size = generators.catalog_block_size(generators.KNOWN_DEFECT_MIX)
    entries = []
    for k in range(DEFECT_BLOCKS):
        entries += generators.catalog_block(rng, k * size, generators.KNOWN_DEFECT_MIX)
    outs, _, _ = run_batch(ops.catalog_op, [ops.make_triangle(s) for _, s in entries])
    flags = oracle.catalog_failed(entries, outs)
    return {
        "split": sum(flags),
        "of": len(entries),
        "by_kind": {
            kind: sum(bad for (_, s), bad in zip(entries, flags) if s.kind == kind)
            for kind, _ in generators.KNOWN_DEFECT_MIX
        },
    }


def failed_flags(workload: str, items, outs) -> list[bool]:
    if workload == "pipeline":
        return [oracle.pipeline_failed(s, out) for s, out in zip(items, outs)]
    return oracle.catalog_failed(items, outs)


def run_batch(op, inputs, tracer: Tracer | None = None):
    """Run op on every input.  Returns the outputs (or the unexpected
    exception), each op's latency in ns and the time of the whole loop in ns."""
    clock = time.perf_counter_ns
    outs = []
    latencies = array("q")
    t_start = clock()
    for k, x in enumerate(inputs):
        if tracer is not None:
            tracer.op_id = k
        t0 = clock()
        try:
            out = op(x)
        except Exception as exc:  # counted as a failed op by the checks
            out = exc
        latencies.append(clock() - t0)
        outs.append(out)
    return outs, latencies, clock() - t_start


def op_for(workload: str):
    return ops.pipeline_op if workload == "pipeline" else ops.catalog_op


def reference_slice() -> int:
    """Nanoseconds of one slice of a fixed pure-Python job that calls no
    trishape code: complex and float arithmetic, tuples and builtin calls,
    the kind of work trishape's own functions do."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for k in range(REF_STEPS):
        z = complex(math.cos(k * 1e-3), math.sin(k * 1e-3))
        w = (z - 1.0) / (z + 2.0)
        t = (w.real, w.imag, abs(w))
        acc += max(t) - min(t)
    return time.perf_counter_ns() - t0


class Pace:
    """The machine's speed next to each piece of timed work.

    Other tenants of the host slow this machine by up to 60% in phases that
    can outlast a whole run; even the fastest reference slice of a run moves
    by 14% from run to run.  So no estimator over raw times holds still.
    Each piece of work is timed between slices of the reference job, and
    its time divided by theirs is the work in units of the machine's current
    speed.  The steady metrics are the median of those ratios times
    REF_SLICE_NS: the time the work takes on the baseline machine at its
    quiet speed.  A change to trishape moves the ratios; a change in the
    host's load moves the work and the slices together."""

    def __init__(self) -> None:
        self.slices = array("q")

    def around(self, n: int = 1) -> float:
        """Run n slices; their mean in ns."""
        for _ in range(n):
            self.slices.append(reference_slice())
        return statistics.fmean(self.slices[-n:])


class SetupProbes:
    """Fresh processes (probe.py), sampled at even intervals over a run.

    Each gives the set-up time and the peak resident set of a process that
    does the workload's work and nothing else.  The machine's speed changes
    in phases of a second or more, so probes taken back to back would all
    see one phase."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 pace: Pace) -> None:
        self.argv = [sys.executable, str(Path(__file__).with_name("probe.py")),
                     workload, str(seed)]
        self.root = root
        self.pace = pace
        self.every = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.setup_s: list[float] = []
        self.ratios: list[float] = []
        self.rss_mb: list[float] = []

    def _take(self) -> None:
        before = self.pace.around()
        done = subprocess.run(
            self.argv, cwd=self.root, env=CHILD_ENV,
            capture_output=True, text=True, timeout=60, check=True,
        )
        after = self.pace.around()
        self.setup_s.append(float(done.stdout.split()[-1]))
        self.ratios.append(self.setup_s[-1] * 1e9 / ((before + after) / 2.0))
        _, rss_mb = split_peak_rss(done.stderr)
        self.rss_mb.append(rss_mb)

    def poll(self) -> None:
        """Take a probe if one is due."""
        if len(self.setup_s) < SETUP_PROBES and time.perf_counter() >= self.due:
            self._take()
            self.due += self.every

    def finish(self) -> "SetupProbes":
        while len(self.setup_s) < SETUP_PROBES:
            self._take()
        return self

    def steady_s(self) -> float:
        """Median set-up time, normalised to the baseline machine (see Pace)."""
        return statistics.median(self.ratios) * REF_SLICE_NS / 1e9


def run_ops(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Closed loop over seeded blocks until ``seconds`` have passed.

    Inputs are generated and outputs checked between blocks, outside the
    timed loop.  One warm-up block runs first and is not counted.
    """
    op = op_for(workload)
    stream = blocks(workload, seed)
    items, inputs = next(stream)
    outs, _, _ = run_batch(op, inputs)
    warmup_failed = sum(failed_flags(workload, items, outs))
    defect = known_defect(seed) if workload == "catalog" else None
    latencies = array("q")
    ratios: list[float] = []
    busy_ns = 0
    failed = 0
    problems: list[str] = []
    pace = Pace()
    probes = SetupProbes(root, workload, seed, seconds, pace)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        probes.poll()
        items, inputs = next(stream)
        before = pace.around()
        outs, lat, ns = run_batch(op, inputs)
        after = pace.around()
        latencies.extend(lat)
        flags = failed_flags(workload, items, outs)
        for item, bad in zip(items, flags):
            if bad and len(problems) < 100:
                problems.append(repr(item))
        # every block holds the workload's exact mix (on catalog, all copies
        # of its base shapes), so a block's time is the program's speed on it
        ratios.append(ns / len(inputs) / ((before + after) / 2.0))
        busy_ns += ns
        failed += sum(flags)
    n = len(latencies)
    probes.finish()
    steady_op_ns = statistics.median(ratios) * REF_SLICE_NS
    return {
        "setup_s": probes.setup_s,
        "steady_setup_s": probes.steady_s(),
        "attempted": n,
        "failed": failed,
        "problems": problems,
        "warmup_failed": warmup_failed,
        "busy_s": busy_ns / 1e9,
        "blocks": len(ratios),
        "reference_slices": len(pace.slices),
        "fastest_slice_us": min(pace.slices) / 1e3,
        "median_slice_us": statistics.median(pace.slices) / 1e3,
        "ops_per_s": (n - failed) / (busy_ns / 1e9),
        "steady_ops_per_s": (n - failed) / n / (steady_op_ns / 1e9),
        "steady_op_us": steady_op_ns / 1e3,
        "latency": latency_summary(latencies),
        # the probes' peaks differ by a few pages at most, so a mean is safe
        "peak_rss_mb": statistics.fmean(probes.rss_mb),
        "probe_rss_mb": probes.rss_mb,
        "known_defect": defect,
    }


def latency_summary(samples) -> dict:
    """Median, p99 and the highest percentile with at least ten samples
    beyond it, in microseconds."""
    data = sorted(samples)
    n = len(data)

    def pct(level: float) -> float:
        return data[min(n - 1, max(0, int(level / 100.0 * n + 0.5) - 1))] / 1e3

    tail = max(
        (lv for lv in (50.0, 90.0, 99.0, 99.9, 99.99) if n * (1 - lv / 100.0) >= 10),
        default=50.0,
    )
    return {
        "samples": n,
        "p50_us": statistics.median(data) / 1e3,
        "p99_us": pct(99.0),
        "tail_level": tail,
        "tail_us": pct(tail),
    }


# ---------------------------------------------------------------------------
# cli


def split_peak_rss(stderr: str, fallback_mb: float = 0.0) -> tuple[str, float]:
    """(stderr without rsshook's line, the peak RSS in MB it reports).  The
    fallback, for a system without /proc, is wait4's ru_maxrss."""
    lines = stderr.splitlines()
    if lines and lines[-1].startswith(MARK):
        return "\n".join(lines[:-1]), int(lines[-1][len(MARK):]) / 1024.0
    return stderr, fallback_mb


def spawn_cli(root: Path, argv: list[str]) -> dict:
    """Run ``python -m trishape.cli`` with trishape from src; wall time runs
    from spawn to the last byte of stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "trishape.cli", *argv],
        cwd=root,
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out = proc.stdout.read()
        wall = time.perf_counter() - t0
        # read after stdout: the CLI writes to stderr only a one-line error
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    stderr, rss_mb = split_peak_rss(err.decode(), usage.ru_maxrss / 1024.0)
    return {
        "code": proc.returncode,
        "text": out.decode(),
        "stderr": stderr,
        "wall_s": wall,
        "rss_mb": rss_mb,
    }


def cli_in_process(argv: list[str]) -> dict:
    """Run ``trishape.cli.main(argv)`` here, with stdout captured."""
    cli = importlib.import_module("trishape.cli")
    buf, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "text": buf.getvalue(), "stderr": err.getvalue(),
            "wall_s": time.perf_counter() - t0}


def _round(run, tracer: Tracer | None = None, pace: Pace | None = None) -> dict:
    """One pass through the four commands: total and per-command wall time,
    each command's time over the reference slices around it (with a pace),
    the reasons any command's output was wrong, the largest child RSS and
    the outputs."""
    walls: dict[str, float] = {}
    ratios: dict[str, float] = {}
    texts: dict[str, str] = {}
    problems: list[str] = []
    rss_mb = 0.0
    for k, (name, argv) in enumerate(ops.CLI_COMMANDS):
        if tracer is not None:
            tracer.op_id = k
        before = pace.around(CLI_REF_SLICES) if pace is not None else 0.0
        res = run(argv)
        if pace is not None:
            after = pace.around(CLI_REF_SLICES)
            ratios[name] = res["wall_s"] * 1e9 / ((before + after) / 2.0)
        walls[name] = res["wall_s"]
        texts[name] = res["text"]
        rss_mb = max(rss_mb, res.get("rss_mb", 0.0))
        reason = oracle.cli_failure(name, res["code"], res["text"])
        if reason is not None:
            problems.append(f"{name}: {reason} {res['stderr'].strip()}".strip())
    return {"wall_s": sum(walls.values()), "walls": walls, "ratios": ratios,
            "texts": texts, "problems": problems, "rss_mb": rss_mb}


def run_cli(root: Path, seconds: float) -> dict:
    """Closed loop, one client: each command starts after the previous one
    has exited and its stdout has been read.  One op is one round of the
    four commands."""
    rounds: list[dict] = []
    pace = Pace()
    probes = SetupProbes(root, "cli", 0, seconds, pace)
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        probes.poll()
        r = _round(lambda argv: spawn_cli(root, argv), pace=pace)
        del r["texts"]
        rounds.append(r)
    walls = [r["wall_s"] for r in rounds]
    failed = sum(1 for r in rounds if r["problems"])
    commands_s = {
        name: statistics.median(r["walls"][name] for r in rounds)
        for name, _ in ops.CLI_COMMANDS
    }
    steady_round = sum(
        statistics.median(r["ratios"][name] for r in rounds)
        for name, _ in ops.CLI_COMMANDS
    ) * REF_SLICE_NS / 1e9
    probes.finish()

    return {
        "setup_s": probes.setup_s,
        "steady_setup_s": probes.steady_s(),
        "attempted": len(rounds),
        "failed": failed,
        "problems": [p for r in rounds for p in r["problems"]],
        "busy_s": sum(walls),
        "ops_per_s": (len(rounds) - failed) / sum(walls),
        "steady_ops_per_s": (len(rounds) - failed) / len(rounds) / steady_round,
        "steady_op_us": steady_round * 1e6,
        "latency": latency_summary([w * 1e9 for w in walls]),
        "commands_s": commands_s,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        "reference_slices": len(pace.slices),
        "fastest_slice_us": min(pace.slices) / 1e3,
        "median_slice_us": statistics.median(pace.slices) / 1e3,
    }


# ---------------------------------------------------------------------------
# traced runs


def trace_batch(workload: str, seed: int):
    """The first TRACE_BLOCKS blocks of the seeded stream, as one batch;
    catalog base ids are unique across blocks, so one check covers it."""
    stream = blocks(workload, seed)
    items, inputs = [], []
    for _ in range(TRACE_BLOCKS[workload]):
        its, ins = next(stream)
        items += its
        inputs += ins
    return items, inputs


def run_traced(workload: str, seed: int, seconds: float, dump: Path) -> dict:
    """Alternate untraced and traced passes over one fixed batch until
    ``seconds`` have passed.  Counts come from the first traced pass, whose
    spans are written to ``dump``; the spans of the others are dropped once
    summarised."""
    if workload == "cli":
        n_ops = len(ops.CLI_COMMANDS)

        def one_pass(tracer):
            r = _round(cli_in_process, tracer)
            return r["wall_s"], r["problems"], r["texts"]
    else:
        items, inputs = trace_batch(workload, seed)
        n_ops = len(inputs)
        op = op_for(workload)

        def one_pass(tracer):
            outs, _, ns = run_batch(op, inputs, tracer)
            flags = failed_flags(workload, items, outs)
            return ns / 1e9, [f"op {k}" for k, bad in enumerate(flags) if bad], None

    defect = known_defect(seed) if workload == "catalog" else None
    plain_s, traced_s, problems, passes = [], [], [], []
    spans: dict | None = None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        s, bad, _ = one_pass(None)
        plain_s.append(s)
        problems += bad
        tracer = Tracer()
        tracer.install()
        try:
            s, bad, out = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced_s.append(s)
        problems += bad
        passes.append(tracer.summary())
        if spans is None:
            spans = _span_counts(workload, tracer, out, n_ops)
            tracer.dump(dump)
    return {
        "attempted": n_ops * 2 * len(passes),
        "failed": len(problems),
        "problems": problems,
        "passes": passes,
        "spans": spans,
        "ops": n_ops,
        "overhead": statistics.median(traced_s) / statistics.median(plain_s),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "known_defect": defect,
    }


def _span_counts(workload: str, tracer: Tracer, texts, n_ops: int) -> dict:
    """The counts that need the spans themselves, from one traced pass."""
    counts = {
        "spans": len(tracer),
        "shape.proj_dist_per_orbit": median_or_zero(
            tracer.per_enclosing("shape.orbit", "shape.proj_dist")),
        "shape.act_per_orbit": median_or_zero(
            tracer.per_enclosing("shape.orbit", "triangle.act")),
        "angles.AngleModPi_per_orbit": median_or_zero(tracer.angles_built_per("shape.orbit")),
        "angles.AngleModPi_per_op": tracer.built[0] / n_ops,
        "shape.ProjTripleC_per_op": tracer.built[1] / n_ops,
        "emit_figure_rows": 0,
        "families.level_value_per_row": 0.0,
    }
    if workload == "cli":
        rows = texts["emit-figure"].count("\n") - 1
        emit_op = [name for name, _ in ops.CLI_COMMANDS].index("emit-figure")
        counts["emit_figure_rows"] = rows
        counts["families.level_value_per_row"] = (
            tracer.count_in_op("families.level_value", emit_op) / rows)
    return counts


def counts_repeat(passes: list[dict]) -> bool:
    """Every traced pass made the same calls and failures."""

    def counts(p):
        return {n: (f["calls"], f["fail"]) for n, f in p["functions"].items()}

    return all(counts(p) == counts(passes[0]) for p in passes[1:])


def layer_metrics(workload: str, run: dict) -> tuple[dict, dict]:
    """(per_layer metrics for the result line, full detail for the trace file)."""
    passes = run["passes"]
    first = passes[0]
    funcs = first["functions"]
    n_pass = len(passes)

    def mean_self_ns(name):
        return sum(p["functions"][name]["self_ns"] for p in passes) / n_pass

    def mean_layer_ns(layer):
        return sum(p["layers"][layer]["self_ns"] for p in passes) / n_pass

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        metrics[f"{layer}.fail"] = (first["layers"][layer]["fail"], "count")
    for layer in ("angles", "triangle", "shape"):
        metrics[f"{layer}.self_s"] = (mean_layer_ns(layer) / 1e9, "s")
    for name in ("shape.class_of", "triangle.from_sides"):
        metrics[f"{name}.self_us"] = (mean_self_ns(name) / 1e3 / funcs[name]["calls"], "us")
    for name in (
        "shape.orbit", "shape.canonical_rep", "shape.lift_class", "shape.proj_dist",
        "shape.class_of", "triangle.from_sides", "triangle.classify",
        "triangle.orientation", "triangle.act", "projections.to_sphere",
        "projections.torus_inverse", "families.level_value", "families.poncelet_family",
    ):
        metrics[f"{name}.calls"] = (funcs[name]["calls"], "count")
    for name in (
        "shape.proj_dist_per_orbit", "shape.act_per_orbit", "angles.AngleModPi_per_orbit",
        "angles.AngleModPi_per_op", "shape.ProjTripleC_per_op", "families.level_value_per_row",
    ):
        metrics[name] = (run["spans"][name], "count")
    metrics["traced_ops"] = (run["ops"], "count")
    metrics["trace_overhead_ratio"] = (run["overhead"], "ratio")

    detail = {
        "passes": n_pass,
        "ops_per_pass": run["ops"],
        "untraced_pass_s": run["plain_s"],
        "traced_pass_s": run["traced_s"],
        "spans_per_pass": run["spans"]["spans"],
        "layers": {
            layer: {
                "calls": first["layers"][layer]["calls"],
                "fail": first["layers"][layer]["fail"],
                "self_s": mean_layer_ns(layer) / 1e9,
            }
            for layer in LAYERS
        },
        "functions": {
            name: {
                "calls": f["calls"],
                "fail": f["fail"],
                "self_us": mean_self_ns(name) / 1e3 / f["calls"],
                "incl_s": sum(p["functions"][name]["incl_ns"] for p in passes) / n_pass / 1e9,
            }
            for name, f in funcs.items()
            if f["calls"]
        },
        "emit_figure_rows": run["spans"]["emit_figure_rows"],
    }
    if workload == "cli":
        checks = importlib.import_module("trishape.checks")
        for name, fn in checks.ALL_CHECKS:
            span = detail["functions"].get(f"checks.{fn.__name__}", {})
            detail[f"checks.{name}.s"] = span.get("incl_s", 0.0)
        detail["cli.self_s"] = mean_layer_ns("cli") / 1e9
    return metrics, detail
