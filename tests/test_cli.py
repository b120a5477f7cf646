import csv
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trishape.angles import PI
from trishape.cli import _emit, main
from trishape.families import (
    PonceletConfig,
    constant_angle_family,
    constant_ratio_family,
    inscribed_family,
    poncelet_family,
)
from trishape.projections import to_sphere, to_torus
from trishape.shape import class_of, orbit
from trishape.triangle import from_vertices

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_right_isosceles(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vertices", "0,0", "1,0", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["degeneracy"] == "Nondegenerate"
    assert data["orientation"] == "Positive"
    assert abs(data["angles"][0] - math.pi / 2) < 1e-9
    assert abs(data["angles"][1] - math.pi / 4) < 1e-9


def test_classify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--format", "csv", "--vertices", "0,0", "1,0", "0,1"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "degeneracy,orientation,alpha,beta,gamma"
    assert lines[1].startswith("Nondegenerate,Positive,")


def test_project_sphere_equilateral(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--model", "sphere",
        "--vertices", "0,0", "1,0", f"0.5,{math.sin(math.pi / 3)}",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["x"]) < 1e-9
    assert abs(data["y"] + 1.0) < 1e-9
    assert abs(data["z"]) < 1e-9
    assert "EquilateralPlus" in data["loci"]


def test_project_torus(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--model", "torus", "--vertices", "0,1", "0,0", "1,0"
    )
    assert code == 0
    data = json.loads(out)
    vals = sorted((data["p"], data["q"], data["r"]))
    assert abs(vals[2] - math.pi / 2) < 1e-9


def test_orbit_sizes(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--vertices", "0,0", "1,0", "0.3,0.9")
    assert code == 0
    assert json.loads(out)["size"] == 12


def test_separate_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "separate", "--pair", "constant-angle:1.5707963267948966,2.0943951023931953",
        "--model", "torus",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Separated"
    code, out, _ = run_cli(
        capsys, "separate", "--pair", "constant-angle:1.5707963267948966,2.0943951023931953",
        "--model", "sphere",
    )
    assert json.loads(out)["verdict"] == "Merged"
    code, out, _ = run_cli(
        capsys, "separate", "--pair", "constant-ratio:1,2", "--model", "torus"
    )
    assert json.loads(out)["verdict"] == "Merged"


def test_poncelet_command(capsys):
    code, out, _ = run_cli(
        capsys, "poncelet", "--r", "0.5", "--R", "2.0", "--samples", "8"
    )
    assert code == 0
    data = json.loads(out)
    for row in data["orbit"]:
        assert row["tangency_residual"] < 1e-8
        assert abs(row["r_over_R"] - 0.25) < 1e-9


def test_trace_constant_angle(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--family", "constant-angle", "--param", "1.0",
        "--samples", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,class,x,y,z,p,q,r")
    assert len(lines) == 6


def test_domain_error_exit_code(capsys):
    # a triple point whose direction sextuple does not close
    code, _, err = run_cli(capsys, "classify", "--vertices", "0,0", "0,0", "0,0",
                           "--directions", "1", "0", "1", "0", "1", "0")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("bad", ["a,b", "bogus", "1,2,3", "1"])
def test_malformed_vertices_are_a_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--vertices", bad, "1,0", "0,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--vertices" in captured.err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
def test_bad_directions_are_a_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--vertices", "0,0", "0,0", "0,0",
              "--directions", bad, "0", "-0.5", "0.5", "-0.5", "-0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--directions" in captured.err


@pytest.mark.parametrize("bad", ["nan,0", "inf,0", "0,-inf"])
def test_non_finite_vertices_are_a_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--model", "sphere", "--vertices", bad, "1,0", "0,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--vertices" in captured.err


@pytest.mark.parametrize("command", [["classify"], ["orbit"], ["project", "--model", "dyck"]])
def test_negative_vertex_coordinates_are_values(capsys, command):
    """'-1,0' is a vertex, not an unknown option."""
    code, out, _ = run_cli(capsys, *command, "--vertices", "0,0", "-1,0", "0,1")
    assert code == 0
    c = class_of(from_vertices(0, -1, 1j))
    data = json.loads(out)
    if command[0] == "classify":
        assert data["angles"] == [float(x) for x in c.angles]
    elif command[0] == "orbit":
        assert data["classes"] == [img.to_json() for img in orbit(c)]
    else:
        assert data == c.to_json()


@pytest.mark.parametrize("argv", [
    ["classify", "--vertices", "0,0", "0,0", "0,0", "--directions", "1", "0", "-1e-3", "0",
     "0", "0"],
    ["trace", "--family", "constant-ratio", "--param", "-1e-3"],
    ["trace", "--family", "constant-ratio", "--param", "-0.001"],
], ids=["directions", "param-exponent", "param-decimal"])
def test_negative_values_in_exponent_form_reach_the_domain_check(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["trace", "--family", "poncelet", "--samples", "-3"],
    ["trace", "--family", "inscribed", "--samples", "0"],
    ["poncelet", "--r", "0.5", "--R", "2.0", "--samples", "-1"],
    ["poncelet", "--r", "0.5", "--R", "2.0", "--samples", "0"],
], ids=["trace-negative", "trace-zero", "poncelet-negative", "poncelet-zero"])
def test_samples_below_one_are_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err


def test_overflowing_side_vectors_are_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "classify", "--vertices", "1.5e308,0", "0,0", "0,1.5e308")
    assert code == 1
    assert out == ""
    assert "side-vectors" in err


def test_json_output_refuses_nan():
    with pytest.raises(ValueError):
        _emit({"x": math.nan}, "json")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--no-such-flag"])
    assert exc.value.code == 2


def test_triple_point_requires_directions(capsys):
    code, _, err = run_cli(capsys, "classify", "--vertices", "0,0", "0,0", "0,0")
    assert code == 1
    code, out, _ = run_cli(
        capsys, "classify", "--vertices", "0,0", "0,0", "0,0",
        "--directions", "1", "0", "-0.5", "0.5", "-0.5", "-0.5",
    )
    assert code == 0
    assert json.loads(out)["degeneracy"] == "Triple"


def test_emit_figure_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "emit-figure", "--name", "sphere-atlas", "--grid", "10"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "emit-figure", "--name", "poncelet-levels",
            "--levels", "0.1,0.3,0.5", "--grid", "20",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[2] == outputs[3]
    assert outputs[2].startswith("level,alpha,beta,gamma")


def test_emit_figure_torus_atlas_sheets(capsys):
    code, out, _ = run_cli(capsys, "emit-figure", "--name", "torus-atlas", "--grid", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,p,q,r,sheet"
    sheets = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert sheets <= {"pi", "2pi"}
    assert len(sheets) == 2


def test_console_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "trishape.cli", "classify",
         "--vertices", "0,0", "1,0", "0,1"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["degeneracy"] == "Nondegenerate"


def test_closed_stdout_exits_1_without_a_traceback(child_env):
    # the reader takes the header and closes the pipe, as `| head -1` does;
    # the rows left to write are far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "trishape.cli", "trace", "--family", "poncelet",
         "--samples", "2000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"t,class,x,y,z,p,q,r\n"
    assert err == b""


def test_emit_figure_poncelet_levels_benchmark_command(capsys):
    code, out, _ = run_cli(
        capsys, "emit-figure", "--name", "poncelet-levels", "--grid", "400"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,alpha,beta,gamma"
    assert len(lines) - 1 == 1766
    for line in lines[1:]:
        level, a, b, g = (float(v) for v in line.split(","))
        assert level in (0.1, 0.2, 0.3, 0.4)
        r_over_R = 4.0 * math.sin(a / 2) * math.sin(b / 2) * math.sin(g / 2)
        assert abs(r_over_R - level) <= 1e-12


@pytest.mark.parametrize("grid", ["3", "60"])
def test_emit_figure_equilateral_tangency(capsys, grid):
    # r/R = 1/2 only at the equilateral triangle: the level curve touches
    # the grid line alpha = pi/3 there, and both of its points are emitted
    code, out, _ = run_cli(
        capsys, "emit-figure", "--name", "poncelet-levels", "--levels", "0.5",
        "--grid", grid,
    )
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 2
    for row in rows:
        assert max(abs(v - math.pi / 3) for v in row[1:]) < 1e-12


@pytest.mark.parametrize("argv, flag", [
    (["--levels", "nan,0.2"], "--levels"),
    (["--levels", "inf"], "--levels"),
    (["--levels", "-0.1"], "--levels"),
    (["--levels", "0.6"], "--levels"),
    (["--grid", "1"], "--grid"),
], ids=["nan", "inf", "negative", "above-half", "grid-1"])
def test_emit_figure_rejects_bad_levels_and_grid(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["emit-figure", "--name", "poncelet-levels", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("argv", [
    ["--family", "constant-angle"],
    ["--family", "inscribed", "--param", "3"],
], ids=["missing", "extra"])
def test_trace_param_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["trace", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--param" in captured.err


@pytest.mark.parametrize("family", ["constant-angle", "constant-ratio"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_trace_param_is_a_usage_error(capsys, family, value):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--family", family, "--param", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--param" in captured.err


def test_huge_constant_ratio_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "trace", "--family", "constant-ratio", "--param", "1e100")
    assert code == 1
    assert out == ""
    assert err.startswith("error: side ratio 1e+100")


@pytest.mark.parametrize("pair", [
    "inscribed:1,2", "constant-angle:1", "constant-ratio:1,2,3", "constant-angle:1,x",
    "no-such-family:1,2", "constant-ratio:nan,2", "constant-angle:1,inf",
], ids=["inscribed-extra", "missing", "extra", "not-a-number", "unknown", "nan", "inf"])
def test_separate_bad_pair_is_a_usage_error(capsys, pair):
    with pytest.raises(SystemExit) as exc:
        main(["separate", "--pair", pair, "--model", "torus"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--pair" in captured.err


def test_separate_inscribed_takes_no_values(capsys):
    code, out, _ = run_cli(capsys, "separate", "--pair", "inscribed", "--model", "torus")
    assert code == 0
    assert json.loads(out)["verdict"] == "Merged"


def test_trace_matches_golden(capsys):
    golden = (Path(__file__).parent / "data" / "trace_poncelet_50.csv").read_text()
    argv = ["trace", "--family", "poncelet", "--samples", "50"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == golden
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    want = list(csv.DictReader(io.StringIO(golden)))
    got = json.loads(out)
    assert len(got) == len(want) == 50
    for g, w in zip(got, want):
        assert g["class"] == w["class"]
        assert all(g[k] == float(w[k]) for k in ("t", "x", "y", "z", "p", "q", "r"))


#: the families of the trace_<name>_40.<fmt> fixtures, which
#: ``PYTHONPATH=src python tests/test_cli.py`` regenerates, with
#: trace_poncelet_50.csv, for an output change that is intended and documented
_TRACE_FAMILIES = [
    ("inscribed", ["--family", "inscribed"]),
    ("constant_angle", ["--family", "constant-angle", "--param", "1.0"]),
    ("constant_ratio", ["--family", "constant-ratio", "--param", "0.7"]),
]


@pytest.mark.parametrize("name, argv", _TRACE_FAMILIES)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_families_match_golden(capsys, name, argv, fmt):
    golden = (DATA / f"trace_{name}_40.{fmt}").read_text()
    code, out, _ = run_cli(capsys, "trace", *argv, "--samples", "40", "--format", fmt)
    assert code == 0
    assert out == golden


def _trace_by_triangles(family, samples, fmt, r=0.5, R=2.0, param=None):
    """trace's output rebuilt from the triangle path: class_of of each
    family triangle, json.dumps of its class, and csv.writer or json.dumps
    for the rows."""
    if family == "poncelet":
        cfg = PonceletConfig.from_radii(r, R)
        ts = [2.0 * PI * k / samples for k in range(samples)]
        classes = [class_of(poncelet_family(cfg, t)) for t in ts]
    else:
        fam = {"inscribed": inscribed_family, "constant-angle": constant_angle_family,
               "constant-ratio": constant_ratio_family}[family](*([] if param is None else [param]))
        lo, hi = fam.domain
        ts = [lo + (hi - lo) * k / (samples + 1) for k in range(1, samples + 1)]
        classes = [class_of(fam.eval(t)) for t in ts]
    header = ["t", "class", "x", "y", "z", "p", "q", "r"]
    rows = []
    for t, c in zip(ts, classes):
        s, tp = to_sphere(c), to_torus(c)
        rows.append([t, json.dumps(c.to_json()), s.x, s.y, s.z]
                    + [float(x) for x in tp.as_tuple()])
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("family, samples, options", [
    ("poncelet", 2000, {}),
    ("poncelet", 2000, {"r": 2e-300, "R": 5e-300}),
    ("poncelet", 2000, {"r": 1e199, "R": 1e200}),
    ("inscribed", 500, {}),
    ("constant-angle", 500, {"param": 1.0}),
    ("constant-ratio", 500, {"param": 0.7}),
], ids=["poncelet", "poncelet-tiny", "poncelet-huge", "inscribed", "constant-angle",
        "constant-ratio"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_matches_the_triangle_path(capsys, family, samples, options, fmt):
    argv = ["trace", "--family", family, "--samples", str(samples), "--format", fmt]
    for name, value in options.items():
        argv += [f"--{name}", repr(value)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    want = _trace_by_triangles(family, samples, fmt, **options)
    # the first differing line, not pytest's diff of two megabyte strings
    pairs = itertools.zip_longest(out.splitlines(), want.splitlines())
    assert next(((k, g, w) for k, (g, w) in enumerate(pairs) if g != w), None) is None


def test_trace_refuses_a_constant_ratio_the_family_loses(capsys):
    code, out, err = run_cli(capsys, "trace", "--family", "constant-ratio", "--param", "1e60",
                             "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error: side ratio 1e+60 is lost to rounding at t = ")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_failing_on_its_first_sample_writes_nothing(capsys, fmt):
    # at r = 1e-9 the third chord misses tangency at theta = 0, and only there
    code, out, err = run_cli(capsys, "trace", "--family", "poncelet", "--r", "1e-9",
                             "--R", "1", "--format", fmt)
    assert code == 1
    assert out == ""
    assert err.startswith("error: third chord failed tangency")


def test_trace_failing_later_keeps_the_rows_written(capsys, monkeypatch):
    from trishape import families

    def failing_at_third(cfg, theta, _real=families._poncelet_vertices):
        if theta > 0.3:
            raise ValueError("planted failure")
        return _real(cfg, theta)

    monkeypatch.setattr(families, "_poncelet_vertices", failing_at_third)
    code, out, err = run_cli(capsys, "trace", "--family", "poncelet", "--samples", "50",
                             "--format", "csv")
    assert code == 1
    assert err == "error: planted failure\n"
    golden = (DATA / "trace_poncelet_50.csv").read_text().splitlines(keepends=True)
    assert out == "".join(golden[:4])  # the header and the rows at k = 0, 1, 2


@pytest.mark.parametrize("r, R", [("2e-300", "5e-300"), ("1e199", "1e200")])
def test_poncelet_at_extreme_scales(capsys, r, R):
    code, out, _ = run_cli(capsys, "poncelet", "--r", r, "--R", R, "--samples", "8")
    assert code == 0
    for row in json.loads(out)["orbit"]:
        assert row["tangency_residual"] < 1e-12 * float(r)


def test_separate_outside_a_family_domain_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "separate", "--pair", "constant-ratio:1e-6,2",
                             "--model", "torus")
    assert code == 1
    assert out == ""
    assert "outside the domain" in err


@pytest.mark.parametrize("command", ["poncelet", "trace"])
@pytest.mark.parametrize("radii", [
    ["--r", "1e-200", "--R", "1"], ["--r", "0.5", "--R", "1e200"], ["--r", "nan", "--R", "1"],
    ["--r", "0.5", "--R", "inf"], ["--r", "1e300", "--R", "1e-300"],
], ids=["tiny-r", "huge-R", "nan-r", "inf-R", "r-above-R"])
def test_bad_poncelet_radii_are_a_domain_error(capsys, command, radii):
    argv = ["--family", "poncelet"] if command == "trace" else []
    code, out, err = run_cli(capsys, command, *argv, *radii, "--samples", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_selftest_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    from trishape import checks

    def value_error():
        raise ValueError("bad sample")

    monkeypatch.setattr(checks, "ALL_CHECKS", [
        ("first", lambda: (True, "fine")),
        ("value", value_error),
        ("zero", lambda: 1 / 0),
        ("last", lambda: (True, "still run")),
    ])
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "PASS first: fine",
        "FAIL value: ValueError: bad sample",
        "FAIL zero: ZeroDivisionError: division by zero",
        "PASS last: still run",
    ]


def _pid_check(passed):
    """A check that reports which process ran it."""
    return lambda: (passed, f"pid {os.getpid()}, \"quoted\" ≤ 1e-9")


@pytest.mark.parametrize("outcomes", [
    (True,), (True, True, True), (False, True, True), (True, True, True, False, True),
], ids=["1", "3", "3-parent-fails", "5-child-fails"])
def test_selftest_splits_the_registry_and_keeps_its_order(capsys, monkeypatch, outcomes):
    from trishape import checks

    monkeypatch.setattr(checks, "ALL_CHECKS", [
        (f"check-{k}", _pid_check(passed)) for k, passed in enumerate(outcomes)])
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (0 if all(outcomes) else 1, "")
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{'PASS' if passed else 'FAIL'} check-{k}" for k, passed in enumerate(outcomes)]
    # the first ceil(n/2) run here, the rest in one other process
    half = (len(outcomes) + 1) // 2
    pids = [line.split(": pid ")[1].split(",")[0] for line in lines]
    assert set(pids[:half]) == {str(os.getpid())}
    assert len(set(pids[half:])) == (1 if len(outcomes) > 1 else 0)
    assert not set(pids[half:]) & set(pids[:half])
    assert all(line.endswith(', "quoted" ≤ 1e-9') for line in lines)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_process():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", [None, _no_process], ids=["no-fork", "fork-fails"])
def test_selftest_without_a_child_runs_every_check_here(capsys, monkeypatch, fork):
    from trishape import checks

    monkeypatch.setattr(checks, "ALL_CHECKS", [
        (f"check-{k}", _pid_check(k != 3)) for k in range(5)])
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"{'FAIL' if k == 3 else 'PASS'} check-{k}: pid {os.getpid()}, \"quoted\" ≤ 1e-9"
        for k in range(5)]


def test_selftest_lines_are_those_of_one_process(capsys, monkeypatch):
    assert main(["selftest"]) == 0
    forked = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.delattr(os, "fork")
    assert main(["selftest"]) == 0
    assert capsys.readouterr() == forked


@pytest.mark.parametrize("die, ended", [
    (lambda: os._exit(3), "exit code 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
], ids=["exit", "killed"])
def test_selftest_names_the_checks_a_dead_child_never_reported(capsys, monkeypatch,
                                                               die, ended):
    from trishape import checks

    monkeypatch.setattr(checks, "ALL_CHECKS", [
        ("first", lambda: (True, "fine")),
        ("second", lambda: (True, "fine")),
        ("dies", die),
        ("after", lambda: (True, "never run")),
    ])
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "PASS first: fine",
        "PASS second: fine",
        f"FAIL dies: no result: the check process ended with {ended}",
        f"FAIL after: no result: the check process ended with {ended}",
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_selftest_interrupted_here_stops_and_reaps_the_child(capsys, monkeypatch):
    from trishape import checks

    def interrupt():
        raise KeyboardInterrupt

    monkeypatch.setattr(checks, "ALL_CHECKS", [
        ("interrupt", interrupt),
        ("slow", lambda: (time.sleep(60), (True, "slept"))[1]),
    ])
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["selftest"])
    assert time.perf_counter() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_selftest_closed_stdout_exits_1_and_leaves_no_process(child_env):
    # its own session, so that a child left running would still be found
    proc = subprocess.Popen(
        [sys.executable, "-m", "trishape.cli", "selftest"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
        start_new_session=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"PASS bijection: ")
    assert err == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


if __name__ == "__main__":
    import contextlib

    fixtures = {"trace_poncelet_50.csv": ["--family", "poncelet", "--samples", "50"]}
    for name, argv in _TRACE_FAMILIES:
        for fmt in ("csv", "json"):
            fixtures[f"trace_{name}_40.{fmt}"] = [*argv, "--samples", "40"]
    for fname, argv in fixtures.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["trace", *argv, "--format", fname.rsplit(".", 1)[1]]) == 0
        (DATA / fname).write_text(out.getvalue())
        print(f"wrote {DATA / fname}")
