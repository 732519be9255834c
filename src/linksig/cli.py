"""Command-line front end.

Subcommands: h (invariant query), curve (graph-curve CSV export),
regions (invariant heat map as CSV or SVG), sigma (signature of a user
Seifert system), verify (identity sweeps).  Angles are rational multiples
of pi by default ("1/2" means pi/2); pass --radians for decimal radians.

Exit codes, causes and stderr (stdout is empty on 2, 3, 64 and 65):
  0   success                       empty, or sigma's nullity warning
  1   verify: some point fails      empty
  2   alpha on the root locus       "undefined: alpha on Alexander root locus"
  2   sigma: omega_i = 1 to 1e-12   "error: <message>" (H is undefined there)
  3   zero linking number           "error: <message>"
  64  usage error                   usage, "linksig <command>: error: <message>"
  65  bad --system data             "error: <message>"
A command raises ValueError for a usage error (an angle, range, sample count
or resolution out of bounds, an --out that cannot be written, a curve past
the degree cap); main hands it to that subcommand's _Parser.error, the one
printer of exit 64, which prints the usage and raises SystemExit(64), as for
argparse's own errors ("linksig: error:" when no subcommand was parsed).
Output is byte-deterministic for fixed flags; floats print 17 significant digits.

Each subcommand imports the modules of its own route when it runs, so a
cold `h`, `verify` or `regions` never loads the Chebyshev polynomials, the
pillowcase, the quaternions or the Seifert engine.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .errors import (
    BadSystemError,
    NotDefinedError,
    OmegaOneError,
    ZeroLinkingError,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_UNDEFINED = 2
EXIT_ZERO_LINKING = 3
EXIT_USAGE = 64
EXIT_DATA = 65

UNDEFINED_MESSAGE = "undefined: alpha on Alexander root locus"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_angle(text: str, radians: bool):
    if radians:
        if "/" in text:
            raise ValueError("rational angles cannot be mixed with --radians")
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"bad radian angle {text!r}") from None
        if not 0.0 < value < math.pi:
            raise ValueError(f"angle {text} is outside (0, pi)")
        return value
    from .torus_rep import RationalAngle

    return RationalAngle.parse(text)


def _angle_pair(texts, radians: bool):
    from .torus_rep import AnglePair

    return AnglePair(_parse_angle(texts[0], radians), _parse_angle(texts[1], radians))


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        # a usage error (exit 64), not a failed identity (exit 1)
        raise ValueError(f"cannot write {out_path}: {exc}") from None


def _cmd_h(args) -> int:
    from .torus_rep import defined_strips, strip_h, strip_sigma

    alpha = _angle_pair(args.alpha, args.radians)
    # j, the strip of the flipped sum, is that of (alpha1, pi - alpha2)
    i, j = defined_strips(args.ell, alpha)
    h = strip_h(args.ell, i, j)
    print(f"h={h} sigma=({strip_sigma(args.ell, i)},{strip_sigma(args.ell, j)})")
    return EXIT_OK


def _cmd_curve(args) -> int:
    from .chebyshev import check_degree
    from .pillowcase import CHEB_PATH, DEFAULT_SAMPLES, QUAT_PATH, curves_to_csv, sample_curve
    from .torus_rep import defined_strips

    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    if samples < 1:
        raise ValueError("samples must be positive")
    alpha = _angle_pair(args.alpha, args.radians)
    defined_strips(args.ell, alpha)  # NotDefinedError on the root locus
    if args.path != "quat":
        # the Chebyshev route evaluates T_{2|ell|}: refuse before any sampling
        check_degree(2 * abs(args.ell))
    routes = (("quat", QUAT_PATH), ("cheb", CHEB_PATH))
    curves = [
        sample_curve(args.ell, alpha, samples, path)
        for name, path in routes
        if args.path in (name, "both")
    ]
    footer = None
    if args.path == "both":
        max_dtheta = max(abs(a - b) for a, b in zip(curves[0].thetas, curves[1].thetas))
        footer = f"max_abs_dtheta={max_dtheta:.17g}"
    _write_output(curves_to_csv(curves, footer), args.out)
    return EXIT_OK


def _region_csv(grid) -> str:
    lines = [f"# ell={grid.ell} res={grid.resolution}"]
    lines.extend(",".join(str(v) for v in row) for row in grid.values)
    return "\n".join(lines) + "\n"


def _region_svg(grid) -> str:
    """Heat map by direct tag emission; root-locus lines drawn on top."""
    from .torus_rep import is_root_line
    from .verify import SENTINEL

    res = grid.resolution
    cell = 6
    size = (res - 1) * cell
    values = sorted(
        {v for row in grid.values for v in row if v != SENTINEL}
    )
    palette = {}
    for v in values:
        if v == 0:
            palette[v] = "#e8e8e8"
        elif v > 0:
            shade = max(0, 215 - 40 * v)
            palette[v] = f"rgb({shade},{shade},255)"
        else:
            shade = max(0, 215 + 40 * v)
            palette[v] = f"rgb(255,{shade},{shade})"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i, row in enumerate(grid.values):
        for j, v in enumerate(row):
            fill = "#000000" if v == SENTINEL else palette[v]
            x = i * cell
            y = size - (j + 1) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"/>'
            )
    # alpha1 + alpha2 = pi*m/L and alpha1 - alpha2 = pi*(m/L - 1) in cell units,
    # each drawn from (p, q) = (x0, q0) to (x1, q1)
    big_l = abs(grid.ell)
    segments = []
    for m in range(2 * big_l):
        if not is_root_line(big_l, m):
            continue
        c = res * m / big_l  # p + q = c
        x0, x1 = max(0.0, c - res), min(float(res), c)
        segments.append((x0, c - x0, x1, c - x1))
        d = res * (m / big_l - 1.0)  # p - q = d
        x0, x1 = max(0.0, d), min(float(res), res + d)
        segments.append((x0, x0 - d, x1, x1 - d))
    for x0, q0, x1, q1 in segments:
        if x0 < x1:
            parts.append(
                f'<line x1="{(x0 - 1) * cell:.2f}" y1="{size - (q0 - 1) * cell:.2f}" '
                f'x2="{(x1 - 1) * cell:.2f}" y2="{size - (q1 - 1) * cell:.2f}" '
                'stroke="black" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_regions(args) -> int:
    from .verify import region_grid

    grid = region_grid(args.ell, args.res)
    text = _region_csv(grid) if args.format == "csv" else _region_svg(grid)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_sigma(args) -> int:
    from .signature import build_H, inertia, seifert_from_json
    from .torus_rep import omega_of

    try:
        with open(args.system, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise BadSystemError(f"cannot read {args.system}: {exc}") from None
    system = seifert_from_json(data)
    if len(args.alpha) != system.mu:
        raise ValueError(
            f"system has {system.mu} color(s) but {len(args.alpha)} angle(s) were given"
        )
    omegas = [omega_of(_parse_angle(text, args.radians)) for text in args.alpha]
    ine = inertia(build_H(system, omegas))
    print(f"signature={ine.signature} nullity={ine.n_zero}")
    if ine.n_zero > 0:
        print(
            "warning: nullity > 0, omega lies on or near the Alexander root locus",
            file=sys.stderr,
        )
    return EXIT_OK


def _parse_ell_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"bad ell range {text!r} (use e.g. 3 or -6..6)") from None
    if hi < lo:
        raise ValueError(f"empty ell range {text!r}")
    values = [ell for ell in range(lo, hi + 1) if ell != 0]
    if not values:
        raise ZeroLinkingError("ell range contains only 0")
    return values


def _cmd_verify(args) -> int:
    import json

    from .verify import sweep_main_identity

    ells = _parse_ell_range(args.ell)
    reports = [sweep_main_identity(ell, args.res, verbose=args.verbose) for ell in ells]
    payload = {
        "resolution": args.res,
        "reports": [r.to_json() for r in reports],
        "failed_total": sum(r.failed for r in reports),
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if payload["failed_total"] == 0 else EXIT_VERIFY_FAIL


def _build_parser() -> _Parser:
    parser = _Parser(prog="linksig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_angle_flags(p):
        p.add_argument(
            "--alpha",
            nargs=2,
            required=True,
            metavar="A",
            help='angles as rational multiples of pi ("p/q"), or radians with --radians',
        )
        p.add_argument("--radians", action="store_true", help="angles are decimal radians")

    p_h = sub.add_parser("h", help="invariant and signature values at one angle pair")
    p_h.set_defaults(run=_cmd_h, parser=p_h)
    p_h.add_argument("--ell", type=int, required=True)
    add_angle_flags(p_h)

    p_curve = sub.add_parser("curve", help="export the graph curve as CSV")
    p_curve.set_defaults(run=_cmd_curve, parser=p_curve)
    p_curve.add_argument("--ell", type=int, required=True)
    add_angle_flags(p_curve)
    # None means pillowcase.DEFAULT_SAMPLES, read when the command runs
    p_curve.add_argument("--samples", type=int, default=None)
    p_curve.add_argument("--path", choices=("quat", "cheb", "both"), default="both")
    p_curve.add_argument("--out", default=None)

    p_regions = sub.add_parser("regions", help="invariant heat map over the angle square")
    p_regions.set_defaults(run=_cmd_regions, parser=p_regions)
    p_regions.add_argument("--ell", type=int, required=True)
    p_regions.add_argument("--res", type=int, default=100)
    p_regions.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_regions.add_argument("--out", default=None)

    p_sigma = sub.add_parser("sigma", help="signature of a Seifert system from JSON")
    p_sigma.set_defaults(run=_cmd_sigma, parser=p_sigma)
    p_sigma.add_argument("--system", required=True, help="path to Seifert JSON")
    p_sigma.add_argument("--alpha", nargs="+", required=True, metavar="A")
    p_sigma.add_argument("--radians", action="store_true")

    p_verify = sub.add_parser("verify", help="run identity sweeps over ell ranges")
    p_verify.set_defaults(run=_cmd_verify, parser=p_verify)
    p_verify.add_argument("--ell", required=True, help="single value or range a..b (0 skipped)")
    p_verify.add_argument("--res", type=int, default=120)
    p_verify.add_argument("--verbose", action="store_true", help="include per-point records")
    p_verify.add_argument("--out", default=None)

    return parser


_ELL_VALUE = re.compile(r"-?\d+(\.\.-?\d+)?$")


def _normalize_argv(argv: list[str]) -> list[str]:
    # argparse mistakes "--ell -6..6" for a missing value; glue such pairs
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok == "--ell"
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and _ELL_VALUE.match(argv[i + 1])
        ):
            out.append(f"--ell={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_normalize_argv(argv))
    try:
        return args.run(args)
    except NotDefinedError:
        print(UNDEFINED_MESSAGE, file=sys.stderr)
        return EXIT_UNDEFINED
    except OmegaOneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ZeroLinkingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_LINKING
    except BadSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        args.parser.error(str(exc))
