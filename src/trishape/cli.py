"""Command-line frontend.

Subcommands: classify, project, orbit, trace, poncelet, separate, selftest,
emit-figure.  Output is JSON by default or CSV via --format csv; all
sampling is deterministically seeded, so repeated invocations are
byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import random
import re
import sys
from typing import TYPE_CHECKING, Sequence

from .angles import PI
from .triangle import TriangleVariable, classify, from_vertices, orientation
from .shape import ShapeClass, class_of, class_of_vertices, orbit as class_orbit
from .projections import classify_sphere_locus, to_sphere, to_torus

if TYPE_CHECKING:
    from .families import Family

#: the families ``trace`` samples, with the number of --param values each takes
_TRACE_PARAMS = {"poncelet": 0, "inscribed": 0, "constant-angle": 1, "constant-ratio": 1}

#: the families ``separate`` compares, with the number of --pair values each takes
_PAIR_PARAMS = {"inscribed": 0, "constant-angle": 2, "constant-ratio": 2}


def _floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    return values


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _levels(text: str) -> list[float]:
    levels = _floats(text)
    if not all(0.0 < v <= 0.5 for v in levels):
        raise argparse.ArgumentTypeError(f"levels must be finite and in (0, 0.5]: {text!r}")
    return levels


def _at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _pair(text: str) -> tuple[str, list[float]]:
    kind, _, rest = text.partition(":")
    if kind not in _PAIR_PARAMS:
        raise argparse.ArgumentTypeError(
            f"unknown family {kind!r}; choose from {', '.join(_PAIR_PARAMS)}")
    params = _floats(rest) if rest else []
    if len(params) != _PAIR_PARAMS[kind]:
        raise argparse.ArgumentTypeError(
            f"{kind} takes {_PAIR_PARAMS[kind]} value(s), got {len(params)} in {text!r}")
    return kind, params


def _complex(text: str) -> complex:
    re_im = _floats(text)
    if len(re_im) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    return complex(*re_im)


def _triangle_from_args(args: argparse.Namespace) -> TriangleVariable:
    A, B, C = args.vertices
    return from_vertices(A, B, C, directions=args.directions)


def _emit(obj, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "csv" and csv_rows is not None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
    else:
        print(json.dumps(obj, indent=2, allow_nan=False))


def _family_from_spec(kind: str, params: Sequence[float]) -> Family:
    from .families import constant_angle_family, constant_ratio_family, inscribed_family

    if kind == "constant-angle":
        return constant_angle_family(params[0])
    if kind == "constant-ratio":
        return constant_ratio_family(params[0])
    if kind == "inscribed":
        return inscribed_family()
    raise ValueError(f"unknown family kind: {kind}")


def _cmd_classify(args: argparse.Namespace) -> int:
    T = _triangle_from_args(args)
    out = {
        "degeneracy": classify(T).value,
        "orientation": orientation(T).value,
        "angles": [float(x) for x in class_of(T).angles],
    }
    _emit(out, args.format, [[out["degeneracy"], out["orientation"], *out["angles"]]],
          ["degeneracy", "orientation", "alpha", "beta", "gamma"])
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    c = class_of(_triangle_from_args(args))
    if args.model == "sphere":
        s = to_sphere(c)
        loci = sorted(f.value for f in classify_sphere_locus(s))
        out = {"x": s.x, "y": s.y, "z": s.z, "loci": loci}
        _emit(out, args.format, [[s.x, s.y, s.z, ";".join(loci)]],
              ["x", "y", "z", "loci"])
    elif args.model == "torus":
        t = to_torus(c)
        vals = [float(x) for x in t.as_tuple()]
        out = {"p": vals[0], "q": vals[1], "r": vals[2]}
        _emit(out, args.format, [vals], ["p", "q", "r"])
    else:
        out = c.to_json()
        _emit(out, args.format,
              [[v for pair in out["sides"] for v in pair] + out["angles"]],
              ["a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "alpha", "beta", "gamma"])
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    classes = [c.to_json() for c in class_orbit(class_of(_triangle_from_args(args)))]
    out = {"size": len(classes), "classes": classes}
    rows = [
        [i] + [v for pair in c["sides"] for v in pair] + c["angles"]
        for i, c in enumerate(classes)
    ]
    _emit(out, args.format, rows,
          ["index", "a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "alpha", "beta", "gamma"])
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    wanted = _TRACE_PARAMS[args.family]
    if len(args.param) != wanted:
        raise argparse.ArgumentError(None, f"argument --param: --family {args.family} "
                                     f"takes {wanted} value(s), got {len(args.param)}")
    if args.family == "poncelet":
        from .families import PonceletConfig, _poncelet_vertices

        cfg = PonceletConfig.from_radii(args.r, args.R)

        def sample(k: int) -> tuple[float, ShapeClass]:
            theta = 2.0 * PI * k / args.samples
            return theta, class_of_vertices(*_poncelet_vertices(cfg, theta))
    else:
        fam = _family_from_spec(args.family, args.param)
        lo, hi = fam.domain

        def sample(k: int) -> tuple[float, ShapeClass]:
            t = lo + (hi - lo) * (k + 1) / (args.samples + 1)
            return t, class_of(fam.eval(t))

    def row(k: int):
        t_par, c = sample(k)
        s, t = to_sphere(c), to_torus(c)
        # json.dumps(c.to_json()), written directly: floats by repr.  to_torus
        # keeps the class's own angle objects, so p, q, r are formatted once
        p, q, r = repr(t.p.value), repr(t.q.value), repr(t.r.value)
        a, b, cc = c.sides.as_tuple()
        text = (f'{{"sides": [[{a.real!r}, {a.imag!r}], [{b.real!r}, {b.imag!r}], '
                f'[{cc.real!r}, {cc.imag!r}]], "angles": [{p}, {q}, {r}]}}')
        return t_par, text, s, t, p, q, r

    header = ["t", "class", "x", "y", "z", "p", "q", "r"]
    if args.format == "json":
        _emit([dict(zip(header, (t_par, text, s.x, s.y, s.z, *map(float, t.as_tuple()))))
               for t_par, text, s, t, *_ in map(row, range(args.samples))], "json")
        return 0

    def line(k: int) -> str:
        # what csv.writer writes: floats by repr, and the class quoted with
        # its quotes doubled
        t_par, text, s, _, p, q, r = row(k)
        quoted = text.replace('"', '""')
        return f'{t_par!r},"{quoted}",{s.x!r},{s.y!r},{s.z!r},{p},{q},{r}\n'

    from ._fork import write_rows

    # the header waits for the first row, so a family that fails on its
    # first sample leaves stdout empty; see write_rows for the two processes
    write_rows(",".join(header) + "\n", args.samples, line)
    return 0


def _cmd_poncelet(args: argparse.Namespace) -> int:
    from .families import (
        PonceletConfig, chord_tangency_residual, incircle_outcircle, poncelet_family)

    cfg = PonceletConfig.from_radii(args.r, args.R)
    rows = []
    for k in range(args.samples):
        theta = 2.0 * PI * k / args.samples
        T = poncelet_family(cfg, theta)
        got = incircle_outcircle(T)
        rows.append([theta, got.r / got.R, chord_tangency_residual(cfg, T)]
                    + [v for P in T.vertices for v in (P.real, P.imag)])
    header = ["theta", "r_over_R", "tangency_residual",
              "A_re", "A_im", "B_re", "B_im", "C_re", "C_im"]
    out = {"config": {"r": cfg.r, "R": cfg.R, "d": cfg.d},
           "orbit": [dict(zip(header, row)) for row in rows]}
    _emit(out, args.format, rows, header)
    return 0


def _cmd_separate(args: argparse.Namespace) -> int:
    from .families import Model, separation_test

    kind, params = args.pair
    f1 = _family_from_spec(kind, params[:1])
    f2 = _family_from_spec(kind, params[1:])
    model = {"dyck": Model.DYCK, "sphere": Model.SPHERE, "torus": Model.TORUS}[args.model]
    report = separation_test(f1, f2, model)
    out = report.to_json()
    _emit(out, args.format,
          [[out["model"], out["distance"], out["verdict"]]],
          ["model", "distance", "verdict"])
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from ._fork import ForkedChecks, run_checks
    from .checks import ALL_CHECKS

    # the checks are independent: where the platform forks, a child runs the
    # second half while this process runs the first.  The lines, their
    # order and the exit code are those of one process.
    half = (len(ALL_CHECKS) + 1) // 2 if hasattr(os, "fork") else len(ALL_CHECKS)
    ours, child = ALL_CHECKS, None
    if ALL_CHECKS[half:]:
        try:
            child = ForkedChecks(ALL_CHECKS[half:])
            ours = ALL_CHECKS[:half]
        except OSError:  # no process to spare: run them all here
            pass
    failed = 0
    try:
        theirs = child.results() if child else ()
        for name, passed, detail in itertools.chain(run_checks(ours), theirs):
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}", flush=True)
            failed += 0 if passed else 1
    finally:
        if child:
            child.close()
    return 0 if failed == 0 else 1


def _cmd_emit_figure(args: argparse.Namespace) -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.name == "poncelet-levels":
        from .families import level_curves

        writer.writerow(["level", "alpha", "beta", "gamma"])
        writer.writerows(level_curves(args.levels, args.grid))
    elif args.name == "sphere-atlas":
        from .checks import random_nondegenerate

        rng = random.Random(7)
        writer.writerow(["index", "x", "y", "z", "orientation", "loci"])
        for i in range(args.grid * 4):
            T = random_nondegenerate(rng)
            s = to_sphere(class_of(T))
            loci = sorted(f.value for f in classify_sphere_locus(s, 1e-6))
            writer.writerow([i, s.x, s.y, s.z, orientation(T).value, ";".join(loci)])
    elif args.name == "torus-atlas":
        from .checks import random_nondegenerate

        rng = random.Random(11)
        writer.writerow(["index", "p", "q", "r", "sheet"])
        for i in range(args.grid * 4):
            T = random_nondegenerate(rng)
            t = to_torus(class_of(T))
            total = sum(float(x) for x in t.as_tuple())
            sheet = "pi" if abs(total - PI) < abs(total - 2.0 * PI) else "2pi"
            writer.writerow([i, *(float(x) for x in t.as_tuple()), sheet])
    else:
        raise ValueError(f"unknown figure name: {args.name}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads every token of "-" followed by a digit or "." as a value, so
    ``-1,0``, ``-1e-3`` and ``-.5`` are numbers; argparse alone takes only
    ``-N`` and ``-N.N``.  No option of this CLI starts that way."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trishape",
        description="Triangle similarity classes, their moduli surface, and "
        "its sphere/torus projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_triangle_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--vertices", nargs=3, type=_complex, required=True, metavar="RE,IM",
                       help="three vertices A B C as re,im pairs")
        p.add_argument("--directions", nargs=6, type=_finite, default=None,
                       help="direction sextuple for an all-coincident triangle")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classify", help="degeneracy type, orientation, angles")
    add_triangle_opts(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("project", help="image of the class in a chosen model")
    add_triangle_opts(p)
    p.add_argument("--model", choices=("sphere", "torus", "dyck"), required=True)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("orbit", help="orbit of the class under the 12 symmetries")
    add_triangle_opts(p)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("trace", help="sample a family across its parameter domain")
    p.add_argument("--family", choices=tuple(_TRACE_PARAMS), required=True)
    p.add_argument("--param", type=_floats, default=[],
                   help="family parameter: one for constant-angle and constant-ratio")
    p.add_argument("--r", type=float, default=0.5, help="inradius (poncelet)")
    p.add_argument("--R", type=float, default=2.0, help="circumradius (poncelet)")
    p.add_argument("--samples", type=_at_least(1), default=32, help="at least 1")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("poncelet", help="one revolving orbit with closure residuals")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--samples", type=_at_least(1), default=32, help="at least 1")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_poncelet)

    p = sub.add_parser("separate", help="compare two family limits in one model")
    p.add_argument("--pair", type=_pair, required=True,
                   help="kind:param1,param2 (e.g. constant-angle:1.5707963,2.0943951); "
                   "inscribed takes no values")
    p.add_argument("--model", choices=("dyck", "sphere", "torus"), required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_separate)

    p = sub.add_parser("selftest", help="run the full verification suite")
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser("emit-figure", help="deterministic CSV figure data")
    p.add_argument("--name", choices=("poncelet-levels", "sphere-atlas",
                                      "torus-atlas"), required=True)
    p.add_argument("--levels", type=_levels, default="0.1,0.2,0.3,0.4",
                   help="contour levels for poncelet-levels, each in (0, 0.5]")
    p.add_argument("--grid", type=_at_least(2), default=50, help="grid size, at least 2")
    p.set_defaults(fn=_cmd_emit_figure)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point it at devnull so the
        # flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
