"""Command-line front end.

Subcommands: h (invariant query), curve (graph-curve CSV export),
regions (invariant heat map as CSV or SVG), sigma (signature of a user
Seifert system), verify (identity sweeps).  Angles are rational multiples
of pi by default ("1/2" means pi/2); pass --radians for decimal radians.

Grammar: a command, then its options as _COMMANDS lists them.  An option is
--name, --name VALUE or --name=VALUE; a value is the next token unless it
starts with "--", so -1/2, -3 and -6..6 are values.  Names are exact, the last
occurrence wins, and an integer is an optional "-" then ASCII digits, at most
sys.get_int_max_str_digits() of them (4300 by default; int() refuses more).
A radian angle is what float() reads, in ASCII, with no "_" and no
surrounding space.  -h or --help prints the usage, a blank line and a line
per option, and exits 0.

Exit codes, causes and stderr (stdout is empty on 2, 3, 64, 65 and 71):
  0   success                       empty, or sigma's nullity warning
  1   verify: some point fails      empty
  2   alpha on the root locus       "undefined: alpha on Alexander root locus"
  2   sigma: omega_i = 1 to 1e-12   "error: <message>" (H is undefined there)
  3   zero linking number           "error: <message>"
  64  usage error                   usage, "linksig <command>: error: <message>"
  65  bad --system data             "error: <message>"
  71  out of memory (MemoryError)   "error: out of memory"
A usage error (an option unknown, missing or of a bad value, an angle, range,
sample count or resolution out of bounds, an --out that cannot be written, a
curve past the degree cap, a size past MAX_HELD) raises ValueError; main
alone prints it after the command's usage (the top-level one and "linksig:
error:" only when argv names no command) and raises SystemExit(64).  Output,
stderr too, is byte-deterministic for fixed flags; floats print 17
significant digits.

Sizes: a command holds at once, before it writes anything,
  regions           (res - 1)^2 cells
  curve             samples x routes samples (2 routes for --path both)
  verify --verbose  (res - 1)^2 x ells points (verify alone holds no point)
and an argv that would hold more than MAX_HELD = 10^8 of them is refused, as
a usage error, before any of them is computed.  A size under the bound may
still run out of memory, and then exits 71.

Each subcommand imports the modules of its own route when it runs, so a
cold `h`, `verify` or `regions` never loads the Chebyshev polynomials, the
pillowcase, the quaternions or the Seifert engine.
"""

import math
import sys

from .errors import BadSystemError, NotDefinedError, OmegaOneError, ZeroLinkingError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_UNDEFINED = 2
EXIT_ZERO_LINKING = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NO_MEMORY = 71  # sysexits' EX_OSERR

UNDEFINED_MESSAGE = "undefined: alpha on Alexander root locus"
MAX_HELD = 10**8  # values one command may hold: far above every pool and CI argv


def _check_held(held: int, unit: str) -> None:
    """Refuse, as a usage error, a command that would hold more than MAX_HELD values."""
    if held > MAX_HELD:
        raise ValueError(f"{held} {unit} exceed the {MAX_HELD} values one command may hold")


def _parse_angle(text: str, radians: bool):
    if radians:
        if "/" in text:
            raise ValueError("rational angles cannot be mixed with --radians")
        try:
            if not text.isascii() or "_" in text or text != text.strip():
                raise ValueError  # float() would read Unicode digits, "_" and spaces
            value = float(text)
        except ValueError:
            raise ValueError(f"bad radian angle {text!r}") from None
        if not 0.0 < value < math.pi:
            raise ValueError(f"angle {text} is outside (0, pi)")
        return value
    from .torus_rep import RationalAngle

    return RationalAngle.parse(text)


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


def _cmd_h(ell, alpha, radians) -> int:
    from .torus_rep import AnglePair, defined_strips, strip_h, strip_sigma

    alpha = AnglePair(*(_parse_angle(text, radians) for text in alpha))
    # j, the strip of the flipped sum, is that of (alpha1, pi - alpha2)
    i, j = defined_strips(ell, alpha)
    h = strip_h(ell, i, j)
    print(f"h={h} sigma=({strip_sigma(ell, i)},{strip_sigma(ell, j)})")
    return EXIT_OK


def _cmd_curve(ell, alpha, radians, samples, path, out) -> int:
    from .chebyshev import check_degree
    from .pillowcase import CHEB_PATH, QUAT_PATH, curves_to_csv, sample_curve
    from .torus_rep import AnglePair, defined_strips

    if samples < 1:
        raise ValueError("samples must be positive")
    _check_held(samples * (2 if path == "both" else 1), "samples")
    alpha = AnglePair(*(_parse_angle(text, radians) for text in alpha))
    defined_strips(ell, alpha)  # NotDefinedError on the root locus
    if path != "quat":
        # the Chebyshev route evaluates T_{2|ell|}: refuse before any sampling
        check_degree(2 * abs(ell))
    routes = (("quat", QUAT_PATH), ("cheb", CHEB_PATH))
    curves = [sample_curve(ell, alpha, samples, r) for name, r in routes if path in (name, "both")]
    footer = None
    if path == "both":
        max_dtheta = max(abs(a - b) for a, b in zip(curves[0].thetas, curves[1].thetas))
        footer = f"max_abs_dtheta={max_dtheta:.17g}"
    _write_output(curves_to_csv(curves, footer), out)
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
    palette = {SENTINEL: "#000000", 0: "#e8e8e8"}
    for v in {v for row in grid.values for v in row}.difference(palette):
        shade = max(0, 215 - 40 * abs(v))
        palette[v] = f"rgb({shade},{shade},255)" if v > 0 else f"rgb(255,{shade},{shade})"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i, row in enumerate(grid.values):
        for j, v in enumerate(row):
            x = i * cell
            y = size - (j + 1) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{palette[v]}"/>'
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

    def point(x, q):  # one end of a line as its tag prints it
        return f"{(x - 1) * cell:.2f}", f"{size - (q - 1) * cell:.2f}"

    ends = ((point(x0, q0), point(x1, q1)) for x0, q0, x1, q1 in segments if x0 < x1)
    # lines that round to the same tag are written once, in first-appearance
    # order, and lines that round to a point not at all
    lines = dict.fromkeys(
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="1"/>'
        for (x1, y1), (x2, y2) in ends
        if (x1, y1) != (x2, y2)
    )
    parts.extend(lines)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_regions(ell, res, format, out) -> int:
    from .verify import region_grid

    _check_held(max(res - 1, 0) ** 2, "cells")
    grid = region_grid(ell, res)
    text = _region_csv(grid) if format == "csv" else _region_svg(grid)
    _write_output(text, out)
    return EXIT_OK


def _cmd_sigma(system, alpha, radians) -> int:
    from .signature import build_H, inertia, seifert_from_json
    from .torus_rep import omega_of

    try:
        with open(system, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise BadSystemError(f"cannot read {system}: {exc}") from None
    seifert = seifert_from_json(data)
    if len(alpha) != seifert.mu:
        raise ValueError(f"system has {seifert.mu} color(s) but {len(alpha)} angle(s) were given")
    omegas = [omega_of(_parse_angle(text, radians)) for text in alpha]
    ine = inertia(build_H(seifert, omegas))
    print(f"signature={ine.signature} nullity={ine.n_zero}")
    if ine.n_zero > 0:
        warning = "warning: nullity > 0, omega lies on or near the Alexander root locus"
        print(warning, file=sys.stderr)
    return EXIT_OK


def _cmd_verify(ell, res, verbose, out) -> int:
    import json

    from .torus_rep import parse_int
    from .verify import sweep_main_identity

    lo_text, dots, hi_text = ell.partition("..")
    try:
        lo, hi = parse_int(lo_text), parse_int(hi_text if dots else lo_text)
    except ValueError:
        raise ValueError(f"bad ell range {ell!r} (use e.g. 3 or -6..6)") from None
    if hi < lo:
        raise ValueError(f"empty ell range {ell!r}")
    if lo == hi == 0:
        raise ZeroLinkingError("ell range contains only 0")
    if verbose:
        _check_held(max(res - 1, 0) ** 2 * (hi - lo + 1 - (lo <= 0 <= hi)), "points")
    # the nonzero ells, drawn lazily: the first sweep checks res before a wide range costs memory
    ells = (e for e in range(lo, hi + 1) if e != 0)
    reports = [sweep_main_identity(e, res, verbose=verbose) for e in ells]
    payload = {
        "resolution": res,
        "reports": [r.to_json() for r in reports],
        "failed_total": sum(r.failed for r in reports),
    }
    _write_output(json.dumps(payload, indent=2) + "\n", out)
    return EXIT_OK if payload["failed_total"] == 0 else EXIT_VERIFY_FAIL


_ELL = ("ell", int, ..., "linking number of the (2, 2*ell)-torus link")
_ALPHA = ("alpha", 2, ..., 'angles as rational multiples of pi ("p/q"), or radians with --radians')
_RADIANS = ("radians", bool, False, "angles are decimal radians")
_OUT = ("out", str, None, "write to this file instead of stdout")
# command: (handler, help, options).  An option is (name, kind, default, help): its
# kind is bool (a switch), int, str, a tuple of choices, 2 (two values) or "+" (one
# or more), and a default of ... means the option is required
_COMMANDS = {
    "h": (_cmd_h, "invariant and signature values at one angle pair", (_ELL, _ALPHA, _RADIANS)),
    "curve": (_cmd_curve, "export the graph curve as CSV", (
        _ELL, _ALPHA, _RADIANS,
        ("samples", int, 2048, "samples per route"),
        ("path", ("quat", "cheb", "both"), "both", "the route to sample, or both"), _OUT)),
    "regions": (_cmd_regions, "invariant heat map over the angle square", (
        _ELL, ("res", int, 100, "grid points per angle axis"),
        ("format", ("csv", "svg"), "csv", "output format"), _OUT)),
    "sigma": (_cmd_sigma, "signature of a Seifert system from JSON", (
        ("system", str, ..., "path to Seifert JSON"),
        ("alpha", "+", ..., "one angle per color, as for h"), _RADIANS)),
    "verify": (_cmd_verify, "run identity sweeps over ell ranges", (
        ("ell", str, ..., "single value or range a..b (0 skipped)"),
        ("res", int, 120, "grid points per angle axis"),
        ("verbose", bool, False, "include per-point records"), _OUT)),
}  # fmt: skip
# the exit code of each error that main reports in one stderr line
_ERROR_EXITS = {NotDefinedError: EXIT_UNDEFINED, OmegaOneError: EXIT_UNDEFINED,
                ZeroLinkingError: EXIT_ZERO_LINKING, BadSystemError: EXIT_DATA}  # fmt: skip


def _flag(name: str, kind) -> str:
    """The option as usage shows it: --radians, --ell ELL, --alpha A A, ..."""
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()
    return f"--{name}" + {bool: "", 2: " A A", "+": " A [A ...]"}.get(kind, f" {metavar}")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: linksig [-h] {" + ",".join(_COMMANDS) + "} ..."
    options = _COMMANDS[command][2]
    flags = [_flag(n, k) if d is ... else f"[{_flag(n, k)}]" for n, k, d, _ in options]
    return " ".join(["usage: linksig", command, "[-h]", *flags])


def _print_help(command: str | None):
    """The usage, a blank line and a line per option (per command at the top level)."""
    rows = [(n, spec[1]) for n, spec in _COMMANDS.items()] if command is None else [
        (_flag(n, kind), text) for n, kind, _, text in _COMMANDS[command][2]]
    width = max(len(left) for left, _ in rows)
    sys.stdout.write(f"{_usage(command)}\n\n" + "".join(f"  {a:<{width}}  {b}\n" for a, b in rows))
    raise SystemExit(EXIT_OK)


def _read_options(command: str, argv: list[str]) -> dict:
    """Each option's value by the module docstring's grammar; a usage error raises ValueError."""
    from .torus_rep import parse_int

    options = {name: (kind, default) for name, kind, default, _ in _COMMANDS[command][2]}
    values, unknown, i = {}, [], 0
    while i < len(argv):
        token, i = argv[i], i + 1
        if token in ("-h", "--help"):
            _print_help(command)
        name, explicit, text = token[2:].partition("=")
        kind = options[name][0] if name in options else None
        if not token.startswith("--") or kind is None or kind is bool and explicit:
            unknown.append(token)
            continue
        need = {bool: 0, 2: 2}.get(kind, 1)
        got = [text] if explicit else []
        while (kind == "+" or len(got) < need) and i < len(argv) and not argv[i].startswith("--"):
            got.append(argv[i])
            i += 1
        if len(got) < need:
            count = {2: "2 arguments", "+": "at least one argument"}.get(kind, "one argument")
            raise ValueError(f"argument --{name}: expected {count}")
        if isinstance(kind, tuple) and got[0] not in kind:
            choose = f"(choose from {', '.join(map(repr, kind))})"
            raise ValueError(f"argument --{name}: invalid choice: {got[0]!r} {choose}")
        if kind is int:
            try:
                got = [parse_int(got[0])]
            except ValueError:
                raise ValueError(f"argument --{name}: invalid int value: {got[0]!r}") from None
        values[name] = True if kind is bool else got if kind in (2, "+") else got[0]
    missing = [f"--{n}" for n, (_, d) in options.items() if d is ... and n not in values]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return {name: values.get(name, default) for name, (_, default) in options.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if command is not None:
            return _COMMANDS[command][0](**_read_options(command, argv[1:]))
        if argv[:1] in (["-h"], ["--help"]):
            _print_help(None)
        if not argv:
            raise ValueError("the following arguments are required: command")
        choices = ", ".join(map(repr, _COMMANDS))
        raise ValueError(f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    except tuple(_ERROR_EXITS) as exc:
        undefined = isinstance(exc, NotDefinedError)
        print(UNDEFINED_MESSAGE if undefined else f"error: {exc}", file=sys.stderr)
        return _ERROR_EXITS[type(exc)]
    except MemoryError:
        pass  # reported below, once its traceback has freed what the command held
    except ValueError as exc:
        # the one printer of exit 64: the failing command's usage and error line
        prog = "linksig" if command is None else f"linksig {command}"
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {exc}\n")
        raise SystemExit(EXIT_USAGE) from None
    # not exit 1, which means only that a verify point fails
    print("error: out of memory", file=sys.stderr)
    return EXIT_NO_MEMORY
