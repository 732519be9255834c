import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linksig.cli
import linksig.pillowcase
from linksig.signature import SeifertSystem, seifert_to_json, torus_seifert

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_UNDEFINED = 2
EXIT_ZERO_LINKING = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NO_MEMORY = 71


def main_in_process(argv):
    """(exit code, stdout, stderr) of cli.main; only SystemExit may escape it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = linksig.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def usage(command):
    """The usage of `linksig <command>` as its errors print it: what
    `--help` prints before its first blank line."""
    return main_in_process([command, "--help"])[1].split("\n\n", 1)[0] + "\n"


# Every check of argv -> (exit code, stdout, stderr) calls main_in_process.  A
# Python is started only where the process is what is tested: dev mode, the
# modules a cold command imports, the console entry's gc.freeze, determinism
# across hash seeds, and runs under an address-space cap or a timeout.
def python(*argv, **kwargs):
    """The completed run of `python *argv`, its output read as text."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, **kwargs)


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
    r = python("-c", NUMPY_PROBE, *args, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    probe = dict(line.split("=", 1) for line in r.stderr.splitlines()[-8:])
    probe["linksig_modules"] = set(probe["linksig_modules"].split(","))
    return r, probe


def test_h_values():
    r = main_in_process(["h", "--ell", "3", "--alpha", "1/2", "1/2"])
    assert r == (EXIT_OK, "h=2 sigma=(-2,-2)\n", "")
    r = main_in_process(["h", "--ell", "1", "--alpha", "1/3", "1/4"])
    assert r == (EXIT_OK, "h=0 sigma=(0,0)\n", "")


def test_h_undefined_and_zero_linking():
    code, _, err = main_in_process(["h", "--ell", "3", "--alpha", "1/6", "1/6"])
    assert code == EXIT_UNDEFINED
    assert "undefined: alpha on Alexander root locus" in err
    assert main_in_process(["h", "--ell", "0", "--alpha", "1/3", "1/4"])[0] == EXIT_ZERO_LINKING


def test_usage_errors():
    for argv in (
        ["h", "--ell", "3"],
        ["nonsense"],
        # decimals require --radians; rationals forbid it
        ["h", "--ell", "2", "--alpha", "0.5", "0.5"],
        ["h", "--ell", "2", "--alpha", "1/2", "1/2", "--radians"],
        ["curve", "--ell", "2", "--alpha", "1/2", "1/2", "--samples", "0"],
        ["regions", "--ell", "2", "--res", "1"],
    ):
        assert main_in_process(argv)[0] == EXIT_USAGE, argv
    # an integer longer than Python's digit limit for int() is a bad value
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for argv, prefix in (
        (["h", "--ell", "3", "--alpha", f"1/{digits}", "1/2"],
         "linksig h: error: bad rational angle '1/1"),
        (["h", "--ell", digits, "--alpha", "1/3", "1/2"],
         "linksig h: error: argument --ell: invalid int value: '1"),
        (["verify", "--ell", f"1..{digits}", "--res", "4"],
         "linksig verify: error: bad ell range '1..1"),
    ):  # fmt: skip
        code, out, err = main_in_process(argv)
        assert (code, out) == (EXIT_USAGE, ""), argv[:3]
        assert err.startswith(usage(argv[0]) + prefix), argv[:3]


def test_h_radians_flag():
    code, out, _ = main_in_process(
        ["h", "--ell", "2", "--alpha", "1.0471975511965976", "0.5", "--radians"]
    )
    assert code == EXIT_OK
    assert out.startswith("h=")
    # a radian angle is ASCII float() text with no "_" and no surrounding
    # whitespace; float() alone reads each refused spelling here
    for alpha in ("\u0661.\u0660", "\u0661.\u0665", "1_0.0e-1", " 1.0", "1.0 ", "1.0\n",
                  "\u00a01.0"):
        argv = ["h", "--ell", "3", "--radians", "--alpha", alpha, "1.0"]
        code, out, err = main_in_process(argv)
        assert (code, out) == (EXIT_USAGE, ""), alpha
        assert err.endswith(f"linksig h: error: bad radian angle {alpha!r}\n"), alpha
    for alpha in ("1.0", "+1.0", "1e0", "0.1E1", "1.", "1.000"):
        argv = ["h", "--ell", "3", "--radians", "--alpha", alpha, "1.0"]
        assert main_in_process(argv) == (EXIT_OK, "h=1 sigma=(0,-2)\n", ""), alpha


def test_curve_reference_and_footer():
    argv = ["curve", "--ell", "1", "--alpha", "1/2", "1/2", "--samples", "5"]
    code, out, _ = main_in_process(argv)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
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
    argv = ["curve", "--ell", "-2", "--alpha", "1/3", "1/5", "--samples", "9", "--path", "cheb"]
    assert main_in_process([*argv, "--out", str(out)])[0] == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10 and lines[0] == "phi,theta,provenance"
    assert all("chebyshev-path" in ln for ln in lines[1:])
    assert main_in_process(["curve", "--ell", "3", "--alpha", "1/6", "1/6"])[0] == EXIT_UNDEFINED


def test_regions_csv():
    code, out, _ = main_in_process(["regions", "--ell", "2", "--res", "20", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "# ell=2 res=20"
    rows = [list(map(int, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 19 and all(len(row) == 19 for row in rows)
    assert rows[9][9] == 1
    assert rows[0][0] == 0
    assert rows[4][4] == -999
    assert "-1" in main_in_process(["regions", "--ell", "-2", "--res", "20"])[1]
    assert main_in_process(["regions", "--ell", "0", "--res", "20"])[0] == EXIT_ZERO_LINKING


def test_regions_svg(tmp_path):
    out = tmp_path / "regions.svg"
    argv = ["regions", "--ell", "4", "--res", "40", "--format", "svg", "--out", str(out)]
    assert main_in_process(argv)[0] == EXIT_OK
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<rect" in text and "<line" in text and text.rstrip().endswith("</svg>")


def test_regions_svg_writes_each_root_line_once(tmp_path):
    # 399,996 root-line segments of ell = 1e5 round to 19,206 distinct tags
    out = tmp_path / "big.svg"
    argv = ["regions", "--ell", "100000", "--res", "8", "--format", "svg", "--out", str(out)]
    assert main_in_process(argv) == (EXIT_OK, "", "")
    text = out.read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("<line")]
    assert lines and len(set(lines)) == len(lines)
    assert len(text.encode()) < 2_000_000
    # and none of them is a point: 4 of the segments round to one
    ends = [re.findall(r'[xy][12]="([^"]*)"', ln) for ln in lines]
    assert all(len(e) == 4 and e[:2] != e[2:] for e in ends)


def test_sigma_subcommand(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(2))))
    r = main_in_process(["sigma", "--system", str(path), "--alpha", "1/2", "1/2"])
    assert r[:2] == (EXIT_OK, "signature=-1 nullity=0\n")

    # nullity warning on the root line
    path3 = tmp_path / "system3.json"
    path3.write_text(json.dumps(seifert_to_json(torus_seifert(3))))
    code, out, err = main_in_process(["sigma", "--system", str(path3), "--alpha", "1/6", "1/6"])
    assert code == EXIT_OK
    assert "nullity=1" in out
    assert "root locus" in err


def test_sigma_near_a_root_line_agrees_with_h(tmp_path):
    # (1/1999 + 9/1999) pi lies about 8e-6 rad from the root line pi/200 of
    # the rank-199 torus system.  Its smallest eigenvalue, 1.2e-7 max|H|,
    # fell inside a zero band of 1e-9 * 199 max|H| and was read as nullity;
    # it is far above the rounding error of the count, so sigma reads the
    # closed form that h prints, with no warning
    path = tmp_path / "torus200.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(200))))
    r = main_in_process(["sigma", "--system", str(path), "--alpha", "1/1999", "9/1999"])
    assert r == (EXIT_OK, "signature=197 nullity=0\n", "")
    r = main_in_process(["h", "--ell", "200", "--alpha", "1/1999", "9/1999"])
    assert r[:2] == (EXIT_OK, "h=1 sigma=(197,-199)\n")
    # and far from every root line, sigma_torus_closed(200, (1/3, 2/7)) = -47
    argv = ["sigma", "--system", str(path), "--alpha", "1/3", "2/7"]
    assert main_in_process(argv) == (EXIT_OK, "signature=-47 nullity=0\n", "")


def test_sigma_where_all_of_H_vanishes_reads_nullity(tmp_path):
    # the ell = +-2 torus H (rank 1) is zero on its root line a1 + a2 = pi/2,
    # so max|H| is rounding error; the zero band is set by the size of the
    # terms build_H sums, and sigma warns as h refuses
    warning = "warning: nullity > 0, omega lies on or near the Alexander root locus\n"
    for ell in (2, -2):
        path = tmp_path / f"torus{ell}.json"
        path.write_text(json.dumps(seifert_to_json(torus_seifert(ell))))
        for alpha in (("1/4", "1/4"), ("1/3", "1/6")):
            r = main_in_process(["sigma", "--system", str(path), "--alpha", *alpha])
            assert r == (EXIT_OK, "signature=0 nullity=1\n", warning), (ell, alpha)
            r = main_in_process(["h", "--ell", str(ell), "--alpha", *alpha])
            assert r[0] == EXIT_UNDEFINED


def test_sigma_where_H_is_small_beside_its_terms(tmp_path):
    # H = 2i sin(2 alpha) A with A antisymmetric of rank 2: near alpha = pi/2
    # the entries are rounding beside the terms summed into them, and the
    # mirror pairs of a full matrix differed by more than 1e-12
    path = tmp_path / "anti.json"
    plus = [[0, 32768, 32768], [-32768, 0, 32768], [-32768, -32768, 0]]
    minus = [[-x for x in row] for row in plus]
    path.write_text(json.dumps({"mu": 1, "rank": 3, "matrices": {"+": plus, "-": minus}}))
    argv = ["sigma", "--system", str(path), "--radians", "--alpha", "1.5708063267948966"]
    code, out, err = main_in_process(argv)
    assert (code, out) == (EXIT_OK, "signature=0 nullity=1\n")
    assert "root locus" in err


def test_sigma_of_empty_rows_is_no_system(tmp_path):
    # [] is the 0 x 0 matrix; a matrix with empty rows is not square
    path = tmp_path / "empty.json"
    for rows in ([[]], [[], []]):
        path.write_text(json.dumps({"mu": 1, "rank": 0, "matrices": {"+": rows, "-": rows}}))
        code, out, err = main_in_process(["sigma", "--system", str(path), "--alpha", "1/3"])
        assert (code, out) == (EXIT_DATA, ""), rows
        assert "is not square" in err, rows
    path.write_text(json.dumps({"mu": 1, "rank": 0, "matrices": {"+": [], "-": []}}))
    r = main_in_process(["sigma", "--system", str(path), "--alpha", "1/3"])
    assert r[:2] == (EXIT_OK, "signature=0 nullity=0\n")


def test_sigma_of_all_zero_system(tmp_path):
    path = tmp_path / "zero.json"
    zero = [[0] * 3 for _ in range(3)]
    data = {"mu": 2, "rank": 3, "matrices": {k: zero for k in ("++", "+-", "-+", "--")}}
    path.write_text(json.dumps(data))
    assert main_in_process(["sigma", "--system", str(path), "--alpha", "1/3", "2/7"]) == (
        EXIT_OK,
        "signature=0 nullity=3\n",
        "warning: nullity > 0, omega lies on or near the Alexander root locus\n",
    )


def test_sigma_data_errors(tmp_path):
    path = tmp_path / "bad.json"
    data = seifert_to_json(torus_seifert(2))
    del data["matrices"]["--"]
    argv = ["sigma", "--system", str(path), "--alpha", "1/2", "1/2"]
    path.write_text(json.dumps(data))
    assert main_in_process(argv)[0] == EXIT_DATA

    data = seifert_to_json(torus_seifert(3))
    data["matrices"]["--"][0][1] = 9
    path.write_text(json.dumps(data))
    code, _, err = main_in_process(argv)
    assert code == EXIT_DATA
    assert "transpose" in err and "--" in err

    path.write_text("{broken")
    assert main_in_process(argv)[0] == EXIT_DATA
    argv = ["sigma", "--system", str(tmp_path / "missing.json"), "--alpha", "1/2", "1/2"]
    code, _, err = main_in_process(argv)
    assert code == EXIT_DATA
    assert err.startswith("error: cannot read ") and err.count("\n") == 1

    # bytes that are not UTF-8, and nesting past the parser's recursion limit
    deep = '{"mu":1,"rank":1,"matrices":{"+":' + "[" * 100_000 + "]" * 100_000 + "}}"
    for document in (b"\xff", deep.encode()):
        path.write_bytes(document)
        code, out, err = main_in_process(["sigma", "--system", str(path), "--alpha", "1/3"])
        assert (code, out) == (EXIT_DATA, ""), document[:8]
        assert err.startswith("error: malformed JSON: "), document[:8]
        assert err.count("\n") == 1 and "Traceback" not in err, document[:8]


def test_sigma_rejects_entries_numpy_would_corrupt(tmp_path):
    path = tmp_path / "system.json"
    argv = ["sigma", "--system", str(path), "--alpha", "1/3"]
    for entry in ("1e30", "9223372036854775808", "true"):
        path.write_text(f'{{"mu":1,"rank":1,"matrices":{{"+":[[{entry}]],"-":[[{entry}]]}}}}')
        assert main_in_process(argv)[:2] == (EXIT_DATA, ""), entry
    # matrices that are no mapping, and 2^18 sign vectors with one given: the
    # error names a few keys, not 2^18
    for document in (
        '{"mu":1,"rank":1,"matrices":null}',
        '{"mu":1,"rank":1,"matrices":7}',
        '{"mu":18,"rank":1,"matrices":{"+":[[1]]}}',
        '{"mu":18,"rank":1,"matrices":{"++++++++++++++++++":[[1]]}}',
    ):
        path.write_text(document)
        code, out, err = main_in_process(argv)
        assert (code, out) == (EXIT_DATA, ""), document
        assert len(err) < 1024 and "Traceback" not in err, document
    path.write_text('{"mu":1,"rank":1,"matrices":{"+":[[5]],"-":[[5]]}}')
    assert main_in_process(argv)[:2] == (EXIT_OK, "signature=1 nullity=0\n")


def test_sigma_rejects_a_bool_or_float_mu_and_rank(tmp_path):
    path = tmp_path / "system.json"
    for mu, rank in (("true", "true"), ("true", "1"), ("1", "true"), ("1", "1.0")):
        path.write_text(f'{{"mu":{mu},"rank":{rank},"matrices":{{"+":[[5]],"-":[[5]]}}}}')
        argv = ["sigma", "--system", str(path), "--alpha", "1/3"]
        assert main_in_process(argv)[:2] == (EXIT_DATA, ""), (mu, rank)


def test_sigma_at_omega_one_exits_undefined(tmp_path):
    # omega = exp(2i alpha) within 1e-12 of 1, where H is not defined
    path = tmp_path / "torus6.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(6))))
    for angle in ("1e-13", "3.14159265358979"):
        argv = ["sigma", "--system", str(path), "--radians", "--alpha", angle, "0.5"]
        assert main_in_process(argv) == (
            EXIT_UNDEFINED, "", "error: omega_i = 1 is outside the domain of the signature\n"
        ), angle


def test_verify_subcommand(tmp_path):
    code, out, _ = main_in_process(["verify", "--ell", "3", "--res", "7"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["failed_total"] == 0
    assert payload["reports"][0]["ell"] == 3
    assert set(payload["reports"][0]) == {
        "ell", "resolution", "checked", "failed", "skipped_on_roots",
    }

    code, out, _ = main_in_process(["verify", "--ell", "-2..2", "--res", "12"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [rep["ell"] for rep in payload["reports"]] == [-2, -1, 1, 2]

    assert main_in_process(["verify", "--ell", "0..0", "--res", "7"])[0] == EXIT_ZERO_LINKING
    assert main_in_process(["verify", "--ell", "5..3", "--res", "7"])[0] == EXIT_USAGE

    out = tmp_path / "report.json"
    argv = ["verify", "--ell", "2", "--res", "10", "--verbose", "--out", str(out)]
    assert main_in_process(argv)[0] == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["points"][0]["pass"] is True


def test_outputs_are_byte_deterministic():
    """Two processes with two hash seeds, so the iteration order of a set
    of str, which the seed sets, can reach no output."""
    for args in (
        ("curve", "--ell", "2", "--alpha", "2/7", "3/8", "--samples", "50"),
        ("regions", "--ell", "3", "--res", "30"),
        ("verify", "--ell", "2..3", "--res", "13"),
        ("h", "--ell", "-4", "--alpha", "1/2", "1/3"),
    ):
        first, second = (
            python("-m", "linksig", *args, env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("1", "2")
        )
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
        assert r.stdout == main_in_process(list(args))[1]
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
        r = python("-X", "importtime", "-m", "linksig", *args)
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


def test_the_entry_freezes_and_cli_main_does_not():
    """The console script and `python -m linksig` share one entry, which
    freezes what is alive when the command ends; cli.main, which tests and
    the benchmark call in-process, freezes nothing."""
    import linksig.__main__

    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (target,) = re.findall(r'^linksig = "(.+)"$', pyproject, re.MULTILINE)
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is linksig.__main__.run
    args = ("h", "--ell", "3", "--alpha", "1/2", "1/3")
    r = python("-c", ENTRY_PROBE, target, *args)
    assert r.returncode == EXIT_OK
    assert r.stdout == "h=2 sigma=(-2,-2)\n"
    assert int(r.stderr.rpartition("frozen=")[2]) > 0
    assert main_in_process(list(args)) == (EXIT_OK, r.stdout, "")
    assert gc.get_freeze_count() == 0


def test_python_m_linksig_in_dev_mode_matches_cli_main(tmp_path):
    """`python -X dev -W error -m linksig` exits with each command's code and
    writes the bytes cli.main writes in-process, on every exit path but 1
    and 71: a warning raised anywhere, at exit too, would fail the command
    or show on stderr, and the streams' encoding shows in a non-ASCII echo."""
    torus8 = str(write_benchmark_system(tmp_path, "torus8"))
    nontorus = str(write_benchmark_system(tmp_path, "nontorus"))
    # the ell-40 torus system relabelled by a permutation: a band of width
    # 36, held as 106 runs, which the Householder reduction counts
    base = torus_seifert(40)
    perm = list(range(base.rank))
    random.Random(28).shuffle(perm)
    relabelled = SeifertSystem(2, base.rank, {
        key: [(perm[i], perm[j], v) for i, j, v in e] for key, e in base.entries.items()
    })
    relabelled40 = tmp_path / "relabelled40.json"
    relabelled40.write_text(json.dumps(seifert_to_json(relabelled)))
    printed = {}
    for args, code in (
        (("h", "--ell", "3", "--alpha", "1/2", "1/3"), EXIT_OK),
        (("h", "--ell", "3", "--alpha", "1/6", "1/6"), EXIT_UNDEFINED),
        (("sigma", "--system", torus8, "--radians", "--alpha", "1e-13", "0.5"), EXIT_UNDEFINED),
        (("h", "--ell", "0", "--alpha", "1/3", "1/4"), EXIT_ZERO_LINKING),
        (("h", "--ell", "3", "--radians", "--alpha", "\u0661.\u0665", "1.0"), EXIT_USAGE),
        (("sigma", "--system", str(tmp_path / "missing.json"), "--alpha", "1/3", "2/7"),
         EXIT_DATA),
        (("sigma", "--system", torus8, "--alpha", "1/3", "2/7"), EXIT_OK),
        (("sigma", "--system", nontorus, "--alpha", "1/3", "2/7"), EXIT_OK),
        (("sigma", "--system", str(relabelled40), "--alpha", "1/3", "2/7"), EXIT_OK),
        (("curve", "--ell", "2", "--alpha", "1/3", "1/5", "--samples", "16", "--path", "both"),
         EXIT_OK),
        (("verify", "--ell", "3", "--res", "8"), EXIT_OK),
        (("verify", "--ell", "-3..3", "--res", "8"), EXIT_OK),
        (("regions", "--ell", "3", "--res", "8", "--format", "svg"), EXIT_OK),
    ):  # fmt: skip
        r = python("-X", "dev", "-W", "error", "-m", "linksig", *args)
        assert r.returncode == code, (args, r.stderr)
        assert main_in_process(list(args)) == (code, r.stdout, r.stderr), args
        printed[args] = r.stdout
    # sigma_torus_closed(40, (1/3, 2/7)) = -9: relabelling keeps the inertia
    assert printed["sigma", "--system", str(relabelled40), "--alpha", "1/3", "2/7"] == (
        "signature=-9 nullity=0\n"
    )


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
    r = main_in_process(["h", "--ell", "1000000", "--alpha", "1/3", "2/3"])
    assert r[:2] == (EXIT_OK, "h=666666 sigma=(-999999,-333333)\n")


def test_h_float_point_beside_two_root_lines_in_the_band():
    # at ell 1e10 the root lines L - 1 and L + 1 lie 3.1e-10 rad from the half-turn line
    half = "1.5707963267948966"
    r = main_in_process(["h", "--ell", "10000000000", "--radians", "--alpha", half, half])
    assert r == (EXIT_UNDEFINED, "", "undefined: alpha on Alexander root locus\n")


def test_curve_degree_limit():
    # the Chebyshev route evaluates T_{2|ell|}, whose degree is capped at 10^6
    argv = ["curve", "--ell", "500001", "--alpha", "1/3", "2/7", "--samples", "4"]
    assert main_in_process(argv) == (
        EXIT_USAGE,
        "",
        usage("curve") + "linksig curve: error: degree 1000002 exceeds guard limit 1000000\n",
    )
    assert main_in_process([*argv, "--path", "cheb"])[0] == EXIT_USAGE
    code, out, _ = main_in_process([*argv, "--path", "quat"])
    assert code == EXIT_OK and out.count("quaternion-path") == 4
    argv[2] = "500000"
    code, out, _ = main_in_process(argv)
    assert code == EXIT_OK and out.count("chebyshev-path") == 4


def test_curve_degree_limit_is_checked_before_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    curve_usage = usage("curve")
    monkeypatch.setattr(linksig.pillowcase, "sample_curve", refuse)
    for path in ("both", "cheb"):
        argv = ["curve", "--ell", "-500001", "--alpha", "1/3", "2/7", "--path", path]
        assert main_in_process(argv) == (
            EXIT_USAGE,
            "",
            curve_usage + "linksig curve: error: degree 1000002 exceeds guard limit 1000000\n",
        ), path


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
    code, stdout, err = main_in_process([*args, "--out", str(out)])
    assert (code, stdout) == (EXIT_USAGE, "")
    command_usage = usage(args[0])
    assert err.startswith(f"{command_usage}linksig {args[0]}: error: cannot write {out}: ")
    assert "Traceback" not in err
    assert len(err.splitlines()) == len(command_usage.splitlines()) + 1
    assert not out.parent.exists()


def test_h_past_sys_maxsize():
    # the h range has more members than a Python range can len()
    r = main_in_process(["h", "--ell", "100000000000000000000", "--alpha", "1/3", "1/5"])
    assert r[:2] == (
        EXIT_OK, "h=40000000000000000000 sigma=(-6666666666666666667,-73333333333333333333)\n"
    )


def test_an_exact_angle_past_the_float_range(tmp_path):
    # 1/10^400 rounds to 0.0 radians and (10^400 - 1)/10^400 to the float pi:
    # the curve, a float route, refuses either in either position as it
    # refuses that float; sigma meets omega = 1, and h, all integers, reads
    # the lattice point exactly
    tiny, near_one = "1/1" + "0" * 400, "9" * 400 + "/1" + "0" * 400

    def refused(image):
        message = f"linksig curve: error: angle {image} is outside (0, pi)\n"
        return EXIT_USAGE, "", usage("curve") + message

    for alpha, image in (((tiny, "1/3"), 0.0), (("1/2", tiny), 0.0), ((near_one, "1/3"), math.pi)):
        for path in ("quat", "cheb", "both"):
            argv = ["curve", "--ell", "3", "--alpha", *alpha, "--samples", "2", "--path", path]
            assert main_in_process(argv) == refused(image), argv
    # the fuzzer's argv that ended in a ZeroDivisionError on the quaternion route
    argv = ["curve", "--ell", "1" + "0" * 20, "--alpha", "1/2", tiny, "--samples", "2",
            "--path", "quat"]
    assert main_in_process(argv) == refused(0.0)
    path = tmp_path / "torus3.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(3))))
    code, _, err = main_in_process(["sigma", "--system", str(path), "--alpha", tiny, "1/3"])
    assert code == EXIT_UNDEFINED
    assert err.splitlines()[-1] == "error: omega_i = 1 is outside the domain of the signature"
    r = main_in_process(["h", "--ell", "3", "--alpha", tiny, "1/3"])
    assert r[:2] == (EXIT_OK, "h=1 sigma=(0,-2)\n")


def test_a_float_angle_at_an_ell_past_the_float_range():
    # past |ell| = 2 pi / TAU_ROOT every float angle sum is on the root locus
    huge = "1" + "0" * 400
    for command in ("h", "curve"):
        argv = [command, "--ell", huge, "--radians", "--alpha", "1.0", "1.0"]
        code, _, err = main_in_process(argv)
        assert code == EXIT_UNDEFINED
        assert err.startswith("undefined:")


@pytest.mark.parametrize("alpha,radians", [(("1/3", "1/5"), False), (("1.1", "0.7"), True)])
def test_one_root_locus_check_per_query(alpha, radians, monkeypatch):
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
    code, out, _ = main_in_process(argv)
    assert code == EXIT_OK and out.startswith("h=")
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
    for text in ("1/0", "a/b", "3/2", "0/5", "0.5", "-1/2"):
        code, _, err = main_in_process(["h", "--ell", "3", "--alpha", text, "1/2"])
        assert (code, err) == (EXIT_USAGE, H_USAGE + ANGLE_ERRORS[text]), text


TOP_USAGE = "usage: linksig [-h] {h,curve,regions,sigma,verify} ...\n"


def test_usage_errors_name_the_command_and_ignore_the_terminal(monkeypatch):
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
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main_in_process(list(args)) == (EXIT_USAGE, "", f"{usage_text}{message}\n"), (
                args, columns
            )


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
    r = python("-c", script, *args)
    assert (r.returncode, r.stdout) == (EXIT_USAGE, "")
    assert r.stderr == usage("verify") + "linksig verify: error: resolution must be at least 2\n"


@pytest.mark.parametrize("args", [
    ("curve", "--ell", "3", "--alpha", "1/3", "1/5", "--samples", "40000000"),
    ("verify", "--ell", "3", "--res", "9000", "--verbose"),
])
def test_out_of_memory_exits_71_with_one_line(args):
    """A command that runs out of memory exits 71 with one stderr line and no
    traceback, never 1, which means only that a verify point fails.  Each
    argv holds less than cli.MAX_HELD values, so only memory stops it.  The
    48 MB address-space cap is about three times what the interpreter and
    linksig take, and small, so that each meets it within a second."""
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (48 << 20, 48 << 20))"
    script = f"{cap}; import sys; from linksig.__main__ import run; sys.exit(run())"
    r = python("-c", script, *args)
    assert (r.returncode, r.stdout, r.stderr) == (EXIT_NO_MEMORY, "", "error: out of memory\n")


@pytest.mark.parametrize("args, held", [
    (("regions", "--ell", "3", "--res", "100000"), "9999800001 cells"),
    (("curve", "--ell", "3", "--alpha", "1/3", "1/5", "--samples", "100000000"),
     "200000000 samples"),
    (("verify", "--ell", "3", "--res", "100000", "--verbose"), "9999800001 points"),
])
def test_a_size_past_the_bound_exits_64_at_once(args, held):
    """An argv that would hold more than cli.MAX_HELD values is a usage error,
    refused before any value is computed: no memory cap is needed.  The
    timeout only ends the run if that check is lost."""
    assert linksig.cli.MAX_HELD == 10**8
    r = python("-m", "linksig", *args, timeout=30)
    assert (r.returncode, r.stdout) == (EXIT_USAGE, "")
    message = f"{held} exceed the 100000000 values one command may hold"
    assert r.stderr == usage(args[0]) + f"linksig {args[0]}: error: {message}\n"


# near-valid values for the argv fuzzer: zero, negative and huge parts, some
# past the float range, separators, Unicode digits, the empty string, and
# float spellings, among them radian ones that float() reads but the grammar
# refuses
PARTS = st.one_of(st.integers(-3, 12), st.sampled_from([10**20, -(10**20), 10**400, -(10**400)]))
BAD_RADIANS = ["\u0661.\u0665", "1_0e-1", " 0.5", "0.5 "]
ANGLES = st.one_of(
    st.sampled_from([
        "1/2", "1/3", "2/7", "0/5", "1/0", "3/2", "1_0/30", "\u0661/\u0663", "",
        "nan", "inf", "1e-13", "0.5", "1.1", "-0.5", "a/b", "1/2/3", *BAD_RADIANS,
    ]),
    st.builds("{}/{}".format, PARTS, PARTS),
)  # fmt: skip
HUGE_ELLS = ["100000000000000000000", "-100000000000000000000", "500001", "-1000000"]
# sizes up to 10^12 that hold more than cli.MAX_HELD = 10^8 values on any route
REFUSED_RES = st.integers(10_002, 10**12).map(str)  # (res - 1)^2 > 10^8
REFUSED_SAMPLES = st.integers(10**8 + 1, 10**12).map(str)
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
        ell, res = draw(small_ints(-3, 3)), draw(st.one_of(small_ints(-1, 12), REFUSED_RES))
        fmt = draw(st.sampled_from(["csv", "svg"]))
        return ["regions", "--ell", ell, "--res", res, "--format", fmt, *to_out]
    if command == "verify":
        lo, hi = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        ell = draw(st.sampled_from([f"{lo}..{hi}", str(lo), "5..3", "a..b", "0..0", "", "\u0663"]))
        # verify holds no point unless --verbose, and then visits them all: a
        # refused resolution only with --verbose
        verbose = draw(st.booleans())
        res = draw(st.one_of(small_ints(-1, 12), REFUSED_RES) if verbose else small_ints(-1, 12))
        return ["verify", "--ell", ell, "--res", res, *(["--verbose"] if verbose else []), *to_out]
    ell = draw(st.one_of(small_ints(-3, 3), st.sampled_from(HUGE_ELLS)))
    argv = [command, "--ell", ell, "--alpha", draw(ANGLES), draw(ANGLES), *radians]
    if command == "h":
        return argv
    # a huge ell only at 2 samples: the quaternion route powers once per sample
    samples = "2" if ell in HUGE_ELLS else draw(st.one_of(small_ints(-1, 12), REFUSED_SAMPLES))
    path = draw(st.sampled_from(["quat", "cheb", "both"]))
    return [*argv, "--samples", samples, "--path", path, *to_out]


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
    # a radian angle is ASCII, with no "_" and no surrounding space; sigma
    # reads its system first
    if "--radians" in argv and set(BAD_RADIANS) & set(argv):
        if argv[0] != "sigma" or str(good) in argv:
            assert code == EXIT_USAGE, argv
    # a size past the bound exits 64, or 3 where "0..0" names no ell first
    sizes = [v for k, v in zip(argv, argv[1:]) if k in ("--res", "--samples")]
    if any(v.isascii() and v.isdigit() and int(v) > 12 for v in sizes):
        assert code in (EXIT_ZERO_LINKING, EXIT_USAGE), argv
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
        code, out, _ = main_in_process([str(path) if a == "{torus3}" else a for a in args])
        assert code == EXIT_OK, args
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, args


def test_replays_the_benchmark_pools(tmp_path):
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
        code, out, _ = main_in_process([files.get(a, a) for a in entry["argv"]])
        assert code == entry["exit"], entry["argv"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"], entry["argv"]
