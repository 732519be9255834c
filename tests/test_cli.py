import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linksig.cli
import linksig.pillowcase
from linksig.signature import seifert_to_json, torus_seifert

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_UNDEFINED = 2
EXIT_ZERO_LINKING = 3
EXIT_USAGE = 64
EXIT_DATA = 65


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "linksig", *args], capture_output=True, text=True
    )


def usage(command):
    """The usage of `linksig <command>` as its errors print it: what
    `--help` prints before its first blank line."""
    return run(command, "--help").stdout.split("\n\n", 1)[0] + "\n"


# Runs linksig.cli.main in a fresh interpreter, then reports on stderr
# which linksig modules were loaded, and whether numpy, dataclasses,
# fractions, decimal, argparse, gettext and locale were, along the way.
NUMPY_PROBE = """
import sys
import linksig.cli
code = linksig.cli.main(sys.argv[1:])
mods = sorted(m for m in sys.modules if m.startswith("linksig."))
print(f"linksig_modules={','.join(mods)}", file=sys.stderr)
for name in ("numpy", "dataclasses", "fractions", "decimal", "argparse", "gettext", "locale"):
    print(f"{name}_loaded={name in sys.modules}", file=sys.stderr)
sys.exit(code)
"""


def run_probed(*args):
    """(completed process, {probe key: value}) from the probe's last eight lines."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    probe = dict(line.split("=", 1) for line in r.stderr.splitlines()[-8:])
    probe["linksig_modules"] = set(probe["linksig_modules"].split(","))
    return r, probe


def test_h_values():
    r = run("h", "--ell", "3", "--alpha", "1/2", "1/2")
    assert r.returncode == EXIT_OK
    assert r.stdout == "h=2 sigma=(-2,-2)\n"
    r = run("h", "--ell", "1", "--alpha", "1/3", "1/4")
    assert r.returncode == EXIT_OK
    assert r.stdout == "h=0 sigma=(0,0)\n"


def test_h_undefined_and_zero_linking():
    r = run("h", "--ell", "3", "--alpha", "1/6", "1/6")
    assert r.returncode == EXIT_UNDEFINED
    assert "undefined: alpha on Alexander root locus" in r.stderr
    r = run("h", "--ell", "0", "--alpha", "1/3", "1/4")
    assert r.returncode == EXIT_ZERO_LINKING


def test_usage_errors():
    assert run("h", "--ell", "3").returncode == EXIT_USAGE
    assert run("nonsense").returncode == EXIT_USAGE
    # decimals require --radians; rationals forbid it
    assert run("h", "--ell", "2", "--alpha", "0.5", "0.5").returncode == EXIT_USAGE
    assert (
        run("h", "--ell", "2", "--alpha", "1/2", "1/2", "--radians").returncode
        == EXIT_USAGE
    )
    assert (
        run("curve", "--ell", "2", "--alpha", "1/2", "1/2", "--samples", "0").returncode
        == EXIT_USAGE
    )
    assert run("regions", "--ell", "2", "--res", "1").returncode == EXIT_USAGE


def test_h_radians_flag():
    r = run("h", "--ell", "2", "--alpha", "1.0471975511965976", "0.5", "--radians")
    assert r.returncode == EXIT_OK
    assert r.stdout.startswith("h=")


def test_curve_reference_and_footer():
    r = run("curve", "--ell", "1", "--alpha", "1/2", "1/2", "--samples", "5")
    assert r.returncode == EXIT_OK
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "phi,theta,provenance"
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(body) == 10  # both paths, interleaved
    for ln in body:
        phi_s, theta_s, prov = ln.split(",")
        phi, theta = float(phi_s), float(theta_s)
        reduced = math.acos(math.cos(2 * phi))  # 2*phi folded into [0, pi]
        assert abs(theta - reduced) < 1e-9
        assert prov in ("quaternion-path", "chebyshev-path")
    footer = lines[-1]
    assert footer.startswith("# max_abs_dtheta=")
    assert float(footer.split("=", 1)[1]) < 1e-8


def test_curve_single_path_and_undefined(tmp_path):
    out = tmp_path / "curve.csv"
    r = run(
        "curve", "--ell", "-2", "--alpha", "1/3", "1/5",
        "--samples", "9", "--path", "cheb", "--out", str(out),
    )
    assert r.returncode == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10 and lines[0] == "phi,theta,provenance"
    assert all("chebyshev-path" in ln for ln in lines[1:])
    r = run("curve", "--ell", "3", "--alpha", "1/6", "1/6")
    assert r.returncode == EXIT_UNDEFINED


def test_regions_csv():
    r = run("regions", "--ell", "2", "--res", "20", "--format", "csv")
    assert r.returncode == EXIT_OK
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "# ell=2 res=20"
    rows = [list(map(int, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 19 and all(len(row) == 19 for row in rows)
    assert rows[9][9] == 1
    assert rows[0][0] == 0
    assert rows[4][4] == -999
    r = run("regions", "--ell", "-2", "--res", "20")
    assert "-1" in r.stdout
    assert run("regions", "--ell", "0", "--res", "20").returncode == EXIT_ZERO_LINKING


def test_regions_svg(tmp_path):
    out = tmp_path / "regions.svg"
    r = run("regions", "--ell", "4", "--res", "40", "--format", "svg", "--out", str(out))
    assert r.returncode == EXIT_OK
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<rect" in text and "<line" in text and text.rstrip().endswith("</svg>")


def test_sigma_subcommand(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(2))))
    r = run("sigma", "--system", str(path), "--alpha", "1/2", "1/2")
    assert r.returncode == EXIT_OK
    assert r.stdout == "signature=-1 nullity=0\n"

    # nullity warning on the root line
    path3 = tmp_path / "system3.json"
    path3.write_text(json.dumps(seifert_to_json(torus_seifert(3))))
    r = run("sigma", "--system", str(path3), "--alpha", "1/6", "1/6")
    assert r.returncode == EXIT_OK
    assert "nullity=1" in r.stdout
    assert "root locus" in r.stderr


def test_sigma_near_a_root_line_agrees_with_h(tmp_path):
    # (1/1999 + 9/1999) pi lies about 8e-6 rad from the root line pi/200 of
    # the rank-199 torus system.  Its smallest eigenvalue, 1.2e-7 max|H|,
    # fell inside a zero band of 1e-9 * 199 max|H| and was read as nullity;
    # it is far above the rounding error of the count, so sigma reads the
    # closed form that h prints, with no warning
    path = tmp_path / "torus200.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(200))))
    r = run("sigma", "--system", str(path), "--alpha", "1/1999", "9/1999")
    assert (r.returncode, r.stdout, r.stderr) == (EXIT_OK, "signature=197 nullity=0\n", "")
    r = run("h", "--ell", "200", "--alpha", "1/1999", "9/1999")
    assert (r.returncode, r.stdout) == (EXIT_OK, "h=1 sigma=(197,-199)\n")


def test_sigma_where_all_of_H_vanishes_reads_nullity(tmp_path):
    # the ell = +-2 torus H (rank 1) is zero on its root line a1 + a2 = pi/2,
    # so max|H| is rounding error; the zero band is set by the size of the
    # terms build_H sums, and sigma warns as h refuses
    warning = "warning: nullity > 0, omega lies on or near the Alexander root locus\n"
    for ell in (2, -2):
        path = tmp_path / f"torus{ell}.json"
        path.write_text(json.dumps(seifert_to_json(torus_seifert(ell))))
        for alpha in (("1/4", "1/4"), ("1/3", "1/6")):
            r = run("sigma", "--system", str(path), "--alpha", *alpha)
            assert (r.returncode, r.stdout, r.stderr) == (
                EXIT_OK, "signature=0 nullity=1\n", warning
            ), (ell, alpha)
            assert run("h", "--ell", str(ell), "--alpha", *alpha).returncode == EXIT_UNDEFINED


def test_sigma_where_H_is_small_beside_its_terms(tmp_path):
    # H = 2i sin(2 alpha) A with A antisymmetric of rank 2: near alpha = pi/2
    # the entries are rounding beside the terms summed into them, and the
    # mirror pairs of a full matrix differed by more than 1e-12
    path = tmp_path / "anti.json"
    plus = [[0, 32768, 32768], [-32768, 0, 32768], [-32768, -32768, 0]]
    minus = [[-x for x in row] for row in plus]
    path.write_text(json.dumps({"mu": 1, "rank": 3, "matrices": {"+": plus, "-": minus}}))
    r = run("sigma", "--system", str(path), "--radians", "--alpha", "1.5708063267948966")
    assert (r.returncode, r.stdout) == (EXIT_OK, "signature=0 nullity=1\n")
    assert "root locus" in r.stderr


def test_sigma_of_empty_rows_is_no_system(tmp_path):
    # [] is the 0 x 0 matrix; a matrix with empty rows is not square
    path = tmp_path / "empty.json"
    for rows in ([[]], [[], []]):
        path.write_text(json.dumps({"mu": 1, "rank": 0, "matrices": {"+": rows, "-": rows}}))
        r = run("sigma", "--system", str(path), "--alpha", "1/3")
        assert (r.returncode, r.stdout) == (EXIT_DATA, ""), rows
        assert "is not square" in r.stderr, rows
    path.write_text(json.dumps({"mu": 1, "rank": 0, "matrices": {"+": [], "-": []}}))
    r = run("sigma", "--system", str(path), "--alpha", "1/3")
    assert (r.returncode, r.stdout) == (EXIT_OK, "signature=0 nullity=0\n")


def test_sigma_of_all_zero_system(tmp_path):
    path = tmp_path / "zero.json"
    zero = [[0] * 3 for _ in range(3)]
    data = {"mu": 2, "rank": 3, "matrices": {k: zero for k in ("++", "+-", "-+", "--")}}
    path.write_text(json.dumps(data))
    r = run("sigma", "--system", str(path), "--alpha", "1/3", "2/7")
    assert r.returncode == EXIT_OK
    assert r.stdout == "signature=0 nullity=3\n"
    assert r.stderr == "warning: nullity > 0, omega lies on or near the Alexander root locus\n"


def test_sigma_data_errors(tmp_path):
    path = tmp_path / "bad.json"
    data = seifert_to_json(torus_seifert(2))
    del data["matrices"]["--"]
    path.write_text(json.dumps(data))
    r = run("sigma", "--system", str(path), "--alpha", "1/2", "1/2")
    assert r.returncode == EXIT_DATA

    data = seifert_to_json(torus_seifert(3))
    data["matrices"]["--"][0][1] = 9
    path.write_text(json.dumps(data))
    r = run("sigma", "--system", str(path), "--alpha", "1/2", "1/2")
    assert r.returncode == EXIT_DATA
    assert "transpose" in r.stderr and "--" in r.stderr

    path.write_text("{broken")
    assert run("sigma", "--system", str(path), "--alpha", "1/2", "1/2").returncode == EXIT_DATA
    r = run("sigma", "--system", str(tmp_path / "missing.json"), "--alpha", "1/2", "1/2")
    assert r.returncode == EXIT_DATA
    assert r.stderr.startswith("error: cannot read ") and r.stderr.count("\n") == 1

    # bytes that are not UTF-8, and nesting past the parser's recursion limit
    deep = '{"mu":1,"rank":1,"matrices":{"+":' + "[" * 100_000 + "]" * 100_000 + "}}"
    for document in (b"\xff", deep.encode()):
        path.write_bytes(document)
        r = run("sigma", "--system", str(path), "--alpha", "1/3")
        assert (r.returncode, r.stdout) == (EXIT_DATA, ""), document[:8]
        assert r.stderr.startswith("error: malformed JSON: "), document[:8]
        assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr, document[:8]


def test_sigma_rejects_entries_numpy_would_corrupt(tmp_path):
    path = tmp_path / "system.json"
    for entry in ("1e30", "9223372036854775808", "true"):
        path.write_text(f'{{"mu":1,"rank":1,"matrices":{{"+":[[{entry}]],"-":[[{entry}]]}}}}')
        r = run("sigma", "--system", str(path), "--alpha", "1/3")
        assert (r.returncode, r.stdout) == (EXIT_DATA, ""), entry
    # matrices that are no mapping, and 2^18 sign vectors with one given: the
    # error names a few keys, not 2^18
    for document in (
        '{"mu":1,"rank":1,"matrices":null}',
        '{"mu":1,"rank":1,"matrices":7}',
        '{"mu":18,"rank":1,"matrices":{"+":[[1]]}}',
        '{"mu":18,"rank":1,"matrices":{"++++++++++++++++++":[[1]]}}',
    ):
        path.write_text(document)
        r = run("sigma", "--system", str(path), "--alpha", "1/3")
        assert (r.returncode, r.stdout) == (EXIT_DATA, ""), document
        assert len(r.stderr) < 1024 and "Traceback" not in r.stderr, document
    path.write_text('{"mu":1,"rank":1,"matrices":{"+":[[5]],"-":[[5]]}}')
    r = run("sigma", "--system", str(path), "--alpha", "1/3")
    assert (r.returncode, r.stdout) == (EXIT_OK, "signature=1 nullity=0\n")


def test_sigma_rejects_a_bool_or_float_mu_and_rank(tmp_path):
    path = tmp_path / "system.json"
    for mu, rank in (("true", "true"), ("true", "1"), ("1", "true"), ("1", "1.0")):
        path.write_text(f'{{"mu":{mu},"rank":{rank},"matrices":{{"+":[[5]],"-":[[5]]}}}}')
        r = run("sigma", "--system", str(path), "--alpha", "1/3")
        assert (r.returncode, r.stdout) == (EXIT_DATA, ""), (mu, rank)


def test_sigma_at_omega_one_exits_undefined(tmp_path):
    # omega = exp(2i alpha) within 1e-12 of 1, where H is not defined
    path = tmp_path / "torus6.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(6))))
    for angle in ("1e-13", "3.14159265358979"):
        r = run("sigma", "--system", str(path), "--radians", "--alpha", angle, "0.5")
        assert (r.returncode, r.stdout) == (EXIT_UNDEFINED, ""), angle
        assert r.stderr == "error: omega_i = 1 is outside the domain of the signature\n"
        assert "Traceback" not in r.stderr


def test_verify_subcommand(tmp_path):
    r = run("verify", "--ell", "3", "--res", "7")
    assert r.returncode == EXIT_OK
    payload = json.loads(r.stdout)
    assert payload["failed_total"] == 0
    assert payload["reports"][0]["ell"] == 3
    assert set(payload["reports"][0]) == {
        "ell", "resolution", "checked", "failed", "skipped_on_roots",
    }

    r = run("verify", "--ell", "-2..2", "--res", "12")
    assert r.returncode == EXIT_OK
    payload = json.loads(r.stdout)
    assert [rep["ell"] for rep in payload["reports"]] == [-2, -1, 1, 2]

    assert run("verify", "--ell", "0..0", "--res", "7").returncode == EXIT_ZERO_LINKING
    assert run("verify", "--ell", "5..3", "--res", "7").returncode == EXIT_USAGE

    out = tmp_path / "report.json"
    r = run("verify", "--ell", "2", "--res", "10", "--verbose", "--out", str(out))
    assert r.returncode == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["points"][0]["pass"] is True


def test_outputs_are_byte_deterministic():
    for args in (
        ("curve", "--ell", "2", "--alpha", "2/7", "3/8", "--samples", "50"),
        ("regions", "--ell", "3", "--res", "30"),
        ("verify", "--ell", "2..3", "--res", "13"),
        ("h", "--ell", "-4", "--alpha", "1/2", "1/3"),
    ):
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def write_benchmark_system(tmp_path, name):
    """The path of a copy of the benchmark's Seifert system `name`."""
    expected = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text(encoding="utf-8")
    )
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(expected["systems"][name]), encoding="utf-8")
    return path


def test_no_command_imports_numpy(tmp_path):
    """Each command loads only the modules of its own route, and none loads
    numpy: not even sigma on a system that is not tridiagonal.  None loads
    argparse, gettext, locale, fractions or decimal."""
    lattice_route = (
        "linksig.pillowcase", "linksig.su2", "linksig.signature", "linksig.chebyshev"
    )
    torus = tmp_path / "torus.json"
    # rank 3: the band has both off-diagonals
    torus.write_text(json.dumps(seifert_to_json(torus_seifert(4))))
    nontorus = write_benchmark_system(tmp_path, "nontorus")
    printed = {}
    for args, not_loaded, light in (
        (("h", "--ell", "3", "--alpha", "1/2", "1/2"), lattice_route, True),
        (("verify", "--ell", "3", "--res", "8"), lattice_route, True),
        (
            ("regions", "--ell", "3", "--res", "8", "--format", "svg"),
            lattice_route,
            True,
        ),
        (
            ("curve", "--ell", "2", "--alpha", "1/3", "1/5", "--samples", "16"),
            ("linksig.signature", "linksig.verify"),
            True,
        ),
        (
            ("sigma", "--system", str(nontorus), "--alpha", "1/3", "2/7"),
            ("linksig.pillowcase", "linksig.verify", "linksig.chebyshev"),
            True,
        ),
        (
            ("sigma", "--system", str(torus), "--alpha", "1/2", "1/2"),
            ("linksig.pillowcase", "linksig.verify", "linksig.chebyshev"),
            True,
        ),
    ):
        r, probe = run_probed(*args)
        assert r.returncode == EXIT_OK
        assert probe["numpy_loaded"] == "False", args
        assert probe["dataclasses_loaded"] == "False", args
        for name in ("argparse", "gettext", "locale"):
            assert probe[f"{name}_loaded"] == "False", (args, name)
        assert not probe["linksig_modules"] & set(not_loaded), (args, probe)
        if light:
            assert probe["fractions_loaded"] == probe["decimal_loaded"] == "False", args
        assert r.stdout == run(*args).stdout
        printed[args[0], args[2]] = r.stdout
    # the dense system is counted without eigenvalues, to the same bytes
    assert printed["sigma", str(nontorus)] == "signature=-2 nullity=0\n"
    assert printed["sigma", str(torus)] == "signature=-3 nullity=0\n"


def test_importtime_lists_every_route_module(tmp_path):
    """A route's modules are imported by name, so `-X importtime` times them."""
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(seifert_to_json(torus_seifert(4))))
    for args, route in (
        (("sigma", "--system", str(torus), "--alpha", "1/3", "2/7"), {"linksig.signature"}),
        (
            ("curve", "--ell", "2", "--alpha", "1/3", "1/5", "--samples", "16"),
            {"linksig.pillowcase", "linksig.chebyshev"},
        ),
    ):
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "linksig", *args],
            capture_output=True,
            text=True,
        )
        assert r.returncode == EXIT_OK, args
        timed = {
            line.rpartition("|")[2].strip()
            for line in r.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert route <= timed, (args, sorted(m for m in timed if m.startswith("linksig")))


# Calls the console script's entry the way the generated script does, then
# reports on stderr how many objects the run left frozen.
ENTRY_PROBE = """
import gc, importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
code = getattr(importlib.import_module(module), attr)()
print(f"frozen={gc.get_freeze_count()}", file=sys.stderr)
sys.exit(code)
"""


def test_the_entry_freezes_and_cli_main_does_not(capsys):
    """The console script and `python -m linksig` share one entry, which
    freezes what is alive when the command ends; cli.main, which tests and
    the benchmark call in-process, freezes nothing."""
    import linksig.__main__

    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (target,) = re.findall(r'^linksig = "(.+)"$', pyproject, re.MULTILINE)
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is linksig.__main__.run
    args = ("h", "--ell", "3", "--alpha", "1/2", "1/3")
    r = subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE, target, *args], capture_output=True, text=True
    )
    assert r.returncode == EXIT_OK
    assert r.stdout == "h=2 sigma=(-2,-2)\n"
    assert int(r.stderr.rpartition("frozen=")[2]) > 0
    assert linksig.cli.main(list(args)) == EXIT_OK
    assert capsys.readouterr().out == r.stdout
    assert gc.get_freeze_count() == 0


def test_python_m_linksig_in_dev_mode_matches_cli_main(tmp_path, capsys):
    """`python -X dev -W error -m linksig` exits with each command's code and
    writes the bytes cli.main writes in-process: a warning raised anywhere,
    at exit too, would fail the command or show on stderr."""
    torus8 = str(write_benchmark_system(tmp_path, "torus8"))
    nontorus = str(write_benchmark_system(tmp_path, "nontorus"))
    for args, code in (
        (("h", "--ell", "3", "--alpha", "1/2", "1/3"), EXIT_OK),
        (("h", "--ell", "3", "--alpha", "1/6", "1/6"), EXIT_UNDEFINED),
        (("sigma", "--system", torus8, "--alpha", "1/3", "2/7"), EXIT_OK),
        (("sigma", "--system", nontorus, "--alpha", "1/3", "2/7"), EXIT_OK),
        (("curve", "--ell", "2", "--alpha", "1/3", "1/5", "--samples", "16", "--path", "both"),
         EXIT_OK),
        (("verify", "--ell", "3", "--res", "8"), EXIT_OK),
        (("regions", "--ell", "3", "--res", "8", "--format", "svg"), EXIT_OK),
    ):  # fmt: skip
        r = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "linksig", *args],
            capture_output=True,
            text=True,
        )
        assert r.returncode == code, (args, r.stderr)
        assert linksig.cli.main(list(args)) == code
        captured = capsys.readouterr()
        assert (r.stdout, r.stderr) == (captured.out, captured.err), args


PUBLIC_NAMES = [
    "AnglePair", "BadSystemError", "CurveSample", "DegeneratePhiError", "Inertia",
    "LinksigError", "NotDefinedError", "NullityWarning", "OmegaOneError",
    "PillowPoint", "RationalAngle", "SeifertSystem", "SignedIntersection",
    "TransversalityFailureError", "UnitQuaternion", "ZeroLinkingError", "act",
    "angle_pair", "build_H", "check_mod4_congruence", "eval_T", "eval_U",
    "h_invariant", "inertia", "intersections", "is_defined", "region_grid",
    "rep_count", "sample_curve",
    "seifert_from_json", "seifert_system", "seifert_to_json", "sigma_eval",
    "sigma_torus_closed", "solve_phi", "sweep_main_identity", "symmetrized_sigma",
    "torus_braid", "torus_seifert",
]  # fmt: skip


def test_public_names_resolve_lazily():
    """Every exported name loads through the package's __getattr__, and the
    export list names nothing more."""
    import linksig

    assert linksig.__all__ == PUBLIC_NAMES
    for name in linksig.__all__:
        assert linksig.__getattr__(name) is getattr(linksig, name), name
    for name in dir(linksig):
        getattr(linksig, name)


def test_h_on_the_half_turn_line_at_ell_one_million():
    # alpha1 + alpha2 = pi: the closed form is the constant 1 - |ell| there
    r = run("h", "--ell", "1000000", "--alpha", "1/3", "2/3")
    assert r.returncode == EXIT_OK
    assert r.stdout == "h=666666 sigma=(-999999,-333333)\n"


def test_h_float_point_beside_two_root_lines_in_the_band():
    # at ell 1e10 the root lines L - 1 and L + 1 lie 3.1e-10 rad from the half-turn line
    half = "1.5707963267948966"
    r = run("h", "--ell", "10000000000", "--radians", "--alpha", half, half)
    assert (r.returncode, r.stdout) == (EXIT_UNDEFINED, "")
    assert r.stderr == "undefined: alpha on Alexander root locus\n"


def test_curve_degree_limit():
    # the Chebyshev route evaluates T_{2|ell|}, whose degree is capped at 10^6
    args = ("curve", "--ell", "500001", "--alpha", "1/3", "2/7", "--samples", "4")
    r = run(*args)
    assert (r.returncode, r.stdout) == (EXIT_USAGE, "")
    assert r.stderr == (
        usage("curve") + "linksig curve: error: degree 1000002 exceeds guard limit 1000000\n"
    )
    assert run(*args, "--path", "cheb").returncode == EXIT_USAGE
    r = run(*args, "--path", "quat")
    assert r.returncode == EXIT_OK and r.stdout.count("quaternion-path") == 4
    r = run("curve", "--ell", "500000", "--alpha", "1/3", "2/7", "--samples", "4")
    assert r.returncode == EXIT_OK and r.stdout.count("chebyshev-path") == 4


def test_curve_degree_limit_is_checked_before_sampling(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    with pytest.raises(SystemExit):
        linksig.cli.main(["curve", "--help"])
    curve_usage = capsys.readouterr().out.split("\n\n", 1)[0] + "\n"
    monkeypatch.setattr(linksig.pillowcase, "sample_curve", refuse)
    for path in ("both", "cheb"):
        args = ["curve", "--ell", "-500001", "--alpha", "1/3", "2/7", "--path", path]
        with pytest.raises(SystemExit) as exc:
            linksig.cli.main(args)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            curve_usage + "linksig curve: error: degree 1000002 exceeds guard limit 1000000\n"
        )


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--ell", "3", "--res", "8"),
        ("regions", "--ell", "3", "--res", "8"),
        ("curve", "--ell", "3", "--alpha", "1/3", "1/5", "--samples", "4"),
    ],
)
def test_unwritable_out_is_a_usage_error(tmp_path, args):
    out = tmp_path / "missing" / "out"
    r = run(*args, "--out", str(out))
    assert (r.returncode, r.stdout) == (EXIT_USAGE, "")
    command_usage = usage(args[0])
    assert r.stderr.startswith(f"{command_usage}linksig {args[0]}: error: cannot write {out}: ")
    assert "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == len(command_usage.splitlines()) + 1
    assert not out.parent.exists()


def test_h_past_sys_maxsize():
    # the h range has more members than a Python range can len()
    r = run("h", "--ell", "100000000000000000000", "--alpha", "1/3", "1/5")
    assert r.returncode == EXIT_OK
    assert r.stdout == "h=40000000000000000000 sigma=(-6666666666666666667,-73333333333333333333)\n"


@pytest.mark.parametrize("alpha,radians", [(("1/3", "1/5"), False), (("1.1", "0.7"), True)])
def test_one_root_locus_check_per_query(alpha, radians, monkeypatch, capsys):
    from linksig import torus_rep
    from linksig.signature import symmetrized_sigma

    calls = []
    for name in ("strips", "lattice_strips"):
        real = getattr(torus_rep, name)
        monkeypatch.setattr(
            torus_rep, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
        )
    expected = ["strips"] if radians else ["strips", "lattice_strips"]
    argv = ["h", "--ell", "5", "--alpha", *alpha] + (["--radians"] if radians else [])
    assert linksig.cli.main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("h=")
    assert calls == expected
    calls.clear()
    symmetrized_sigma(5, torus_rep.angle_pair(*(map(float, alpha) if radians else alpha)))
    assert calls == expected


# stderr of a rejected rational angle, recorded from the Fraction-based parse;
# the last two are refused since p and q are an optional "-" then ASCII digits
H_USAGE = "usage: linksig h [-h] --ell ELL --alpha A A [--radians]\n"
ANGLE_ERRORS = {
    "1/0": "linksig h: error: bad rational angle '1/0'\n",
    "a/b": "linksig h: error: bad rational angle 'a/b'\n",
    "3/2": "linksig h: error: angle 3/2 is outside (0, pi)\n",
    "0/5": "linksig h: error: angle 0/5 is outside (0, pi)\n",
    "-1/2": "linksig h: error: angle -1/2 is outside (0, pi)\n",
    "0.5": "linksig h: error: angle '0.5' is not of the form p/q (use --radians for decimals)\n",
    "1/-2": "linksig h: error: angle 1/-2 is outside (0, pi)\n",
    "1/2/3": "linksig h: error: bad rational angle '1/2/3'\n",
    "1/1": "linksig h: error: angle 1/1 is outside (0, pi)\n",
    " 1/2": "linksig h: error: bad rational angle ' 1/2'\n",
    "1_0/20": "linksig h: error: bad rational angle '1_0/20'\n",
}


def test_rational_angle_parse_errors():
    for text, message in ANGLE_ERRORS.items():
        with pytest.raises(ValueError) as exc:
            linksig.cli._parse_angle(text, False)
        assert f"linksig h: error: {exc.value}\n" == message, text
    for text, (p, q) in {"-1/-2": (1, 2), "2/4": (1, 2)}.items():
        angle = linksig.cli._parse_angle(text, False)
        assert (angle.p, angle.q) == (p, q)
    # on the command line; "-1/2" is a value there, as any token not starting "--"
    for text in ("1/0", "a/b", "3/2", "0/5", "0.5"):
        r = run("h", "--ell", "3", "--alpha", text, "1/2")
        assert (r.returncode, r.stderr) == (EXIT_USAGE, H_USAGE + ANGLE_ERRORS[text])
    r = run("h", "--ell", "3", "--alpha", "-1/2", "1/2")
    assert r.returncode == EXIT_USAGE
    assert r.stderr == H_USAGE + ANGLE_ERRORS["-1/2"]


TOP_USAGE = "usage: linksig [-h] {h,curve,regions,sigma,verify} ...\n"


def test_usage_errors_name_the_command_and_ignore_the_terminal():
    """Each exit-64 stderr is the failing command's usage, then its error line,
    with the same bytes under any COLUMNS; the top-level usage and "linksig:
    error:" only when argv names no command."""
    for args, usage_text, message in (
        (("h", "--ell", "3", "--alpha", "1/2", "1/3", "--bogus"), usage("h"),
         "linksig h: error: unrecognized arguments: --bogus"),
        (("curve", "--ell", "3", "--alpha", "3/2", "1/2"), usage("curve"),
         "linksig curve: error: angle 3/2 is outside (0, pi)"),
        (("regions", "--ell", "3", "--format", "png"), usage("regions"),
         "linksig regions: error: argument --format: invalid choice: 'png' (choose from 'csv', 'svg')"),
        (("sigma", "--alpha", "1/3"), usage("sigma"),
         "linksig sigma: error: the following arguments are required: --system"),
        (("verify", "--ell", "3", "--res", "1"), usage("verify"),
         "linksig verify: error: resolution must be at least 2"),
        (("nonsense",), TOP_USAGE, "linksig: error: argument command: invalid choice: 'nonsense' "
         "(choose from 'h', 'curve', 'regions', 'sigma', 'verify')"),
        ((), TOP_USAGE, "linksig: error: the following arguments are required: command"),
    ):  # fmt: skip
        narrow, wide = (
            subprocess.run(
                [sys.executable, "-m", "linksig", *args],
                capture_output=True,
                text=True,
                env=dict(os.environ, COLUMNS=columns),
            )
            for columns in ("40", "200")
        )
        assert (narrow.returncode, narrow.stdout) == (EXIT_USAGE, ""), args
        assert narrow.stderr == wide.stderr == f"{usage_text}{message}\n", args


def test_help_is_the_usage_then_one_line_per_option():
    for command, rows in (("h", 3), ("curve", 6), ("regions", 4), ("sigma", 3), ("verify", 4)):
        # options are read in order, so the bad value after --help is never read
        code, out, err = main_in_process([command, "--help", "--ell", "x"])
        assert (code, err) == (EXIT_OK, ""), command
        head, _, body = out.partition("\n\n")
        assert head.startswith(f"usage: linksig {command} [-h] --")
        assert [line[:4] for line in body.splitlines()] == ["  --"] * rows, command
    code, out, _ = main_in_process(["--help"])
    assert (code, out.partition("\n")[0] + "\n") == (EXIT_OK, TOP_USAGE)
    assert [line.split()[0] for line in out.splitlines()[2:]] == [
        "h", "curve", "regions", "sigma", "verify"
    ]


def test_option_names_are_exact_and_the_last_occurrence_wins():
    # --al is no abbreviation of --alpha
    code, out, err = main_in_process(["h", "--ell", "3", "--al", "1/2", "1/3"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == H_USAGE + "linksig h: error: the following arguments are required: --alpha\n"
    expected = main_in_process(["h", "--ell", "-3", "--alpha", "1/2", "1/3"])
    assert expected[:2] == (EXIT_OK, "h=-2 sigma=(2,2)\n")
    argv = ["h", "--ell=5", "--alpha", "1/3", "1/5", "--ell", "-3", "--alpha=1/2", "1/3"]
    assert main_in_process(argv) == expected
    for argv, message in (
        (["h", "--ell", "3", "--alpha", "1/2"], "argument --alpha: expected 2 arguments"),
        (["h", "--ell", "--alpha", "1/2", "1/3"], "argument --ell: expected one argument"),
        (["h", "--ell", "+3", "--alpha", "1/2", "1/3"], "argument --ell: invalid int value: '+3'"),
        (["h", "--ell", "3", "--alpha", "1/2", "1/3", "4"], "unrecognized arguments: 4"),
    ):
        code, out, err = main_in_process(argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"{H_USAGE}linksig h: error: {message}\n")


def test_a_wide_ell_range_is_read_lazily():
    """verify checks --res before it builds any of a wide ell range, so under a
    300 MB address-space cap the usage error still exits 64."""
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))"
    script = f"{cap}; import sys; from linksig.__main__ import run; sys.exit(run())"
    args = ("verify", "--ell", "1..100000000", "--res", "1")
    r = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (EXIT_USAGE, "")
    assert r.stderr == usage("verify") + "linksig verify: error: resolution must be at least 2\n"


# near-valid values for the argv fuzzer: zero, negative and huge parts,
# separators, Unicode digits, the empty string and float spellings
PARTS = st.one_of(st.integers(-3, 12), st.sampled_from([10**20, -(10**20)]))
ANGLES = st.one_of(
    st.sampled_from([
        "1/2", "1/3", "2/7", "0/5", "1/0", "3/2", "1_0/30", "\u0661/\u0663", "",
        "nan", "inf", "1e-13", "0.5", "1.1", "-0.5", "a/b", "1/2/3",
    ]),
    st.builds("{}/{}".format, PARTS, PARTS),
)  # fmt: skip
HUGE_ELLS = ["100000000000000000000", "-100000000000000000000", "500001", "-1000000"]
USAGE_LAST_LINE = re.compile(r"^linksig( (h|curve|regions|sigma|verify))?: error: .+$")


def small_ints(lo, hi):
    """An integer of [lo, hi] as text, or a token int() may or may not read."""
    return st.one_of(
        st.integers(lo, hi).map(str), st.sampled_from(["", "x", "3.0", "\u0663", "1_0"])
    )


@st.composite
def argvs(draw, out, systems):
    """A well-formed argv of one subcommand, its values drawn near the valid ones."""
    command = draw(st.sampled_from(["h", "curve", "regions", "sigma", "verify"]))
    radians = ["--radians"] if draw(st.booleans()) else []
    to_out = draw(st.sampled_from([[], ["--out", out]]))
    if command == "sigma":
        alphas = draw(st.lists(ANGLES, min_size=1, max_size=3))
        return ["sigma", "--system", draw(st.sampled_from(systems)), "--alpha", *alphas, *radians]
    if command == "regions":
        ell, res = draw(small_ints(-3, 3)), draw(small_ints(-1, 12))
        fmt = draw(st.sampled_from(["csv", "svg"]))
        return ["regions", "--ell", ell, "--res", res, "--format", fmt, *to_out]
    if command == "verify":
        lo, hi = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        ell = draw(st.sampled_from([f"{lo}..{hi}", str(lo), "5..3", "a..b", "0..0", "", "\u0663"]))
        return ["verify", "--ell", ell, "--res", draw(small_ints(-1, 12)), *to_out]
    ell = draw(st.one_of(small_ints(-3, 3), st.sampled_from(HUGE_ELLS)))
    argv = [command, "--ell", ell, "--alpha", draw(ANGLES), draw(ANGLES), *radians]
    if command == "h":
        return argv
    # a huge ell only at 2 samples: the quaternion route powers once per sample
    samples = "2" if ell in HUGE_ELLS else draw(small_ints(-1, 12))
    path = draw(st.sampled_from(["quat", "cheb", "both"]))
    return [*argv, "--samples", samples, "--path", path, *to_out]


def main_in_process(argv):
    """(exit code, stdout, stderr) of cli.main; only SystemExit may escape it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = linksig.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_gets_one_stated_outcome(tmp_path, data):
    """The exit-code contract of the cli docstring, over near-valid argvs."""
    good, malformed = tmp_path / "good.json", tmp_path / "malformed.json"
    good.write_text(json.dumps(seifert_to_json(torus_seifert(2))))
    malformed.write_text("{broken")
    systems = [str(good), str(malformed), str(tmp_path / "missing.json")]
    argv = data.draw(argvs(str(tmp_path / "missing" / "out"), systems))
    code, out, err = result = main_in_process(argv)
    assert code in (0, 1, 2, 3, 64, 65)
    # an integer is an optional "-" then ASCII digits: no "_", no other digits
    if {"\u0663", "1_0"} & set(argv):
        assert code == EXIT_USAGE, argv
    if code in (2, 3, 64, 65):
        assert out == ""
    if code == EXIT_USAGE:
        assert err.startswith("usage: linksig")
        assert USAGE_LAST_LINE.match(err.splitlines()[-1]), err
    elif code in (2, 3, 65):
        assert err.startswith(("error: ", "undefined: ")) and err.count("\n") == 1, err
        assert err.endswith("\n")
    assert main_in_process(argv) == result


# SHA-256 of stdout at float angles, where the expected pools of the
# benchmark hold no command; curve also runs the quaternion route there.
RADIAN_DIGESTS = {
    ("h", "--ell", "3", "--alpha", "1.1", "0.7", "--radians"):
        "9f6697df4aff3e19b3b5b5920fc84fa64cbcfb7f767d91637e4103818d832984",
    ("curve", "--ell", "3", "--alpha", "0.9", "1.3", "--radians",
     "--path", "both", "--samples", "64"):
        "e79cf6e9f1ff1a9d9e4177fd742a1707808c5313fa26b7255dbdbef289caf6a7",
    ("sigma", "--system", "{torus3}", "--alpha", "0.9", "1.3", "--radians"):
        "66c2395b2d2f443538243cb7744ce6ea050932c59c6bc444a5d0cc7b1eb5cfc1",
}


def test_float_angle_output_digests(tmp_path):
    path = tmp_path / "torus3.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(3))))
    for args, digest in RADIAN_DIGESTS.items():
        r = run(*(str(path) if a == "{torus3}" else a for a in args))
        assert r.returncode == EXIT_OK, args
        assert hashlib.sha256(r.stdout.encode("utf-8")).hexdigest() == digest, args


def test_replays_the_benchmark_pools(tmp_path, capsys):
    """Every command of the benchmark's expected pools, in-process, gives its
    recorded exit code and stdout SHA-256."""
    expected = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text(encoding="utf-8")
    )
    files = {}
    for name, system in expected["systems"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(system), encoding="utf-8")
        files["{" + name + "}"] = str(path)
    entries = [entry for pool in expected["queries"].values() for entry in pool]
    assert len(expected["queries"]) == 11 and len(entries) == 528
    for entry in entries:
        code = linksig.cli.main([files.get(a, a) for a in entry["argv"]])
        out = capsys.readouterr().out
        assert code == entry["exit"], entry["argv"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"], entry["argv"]
