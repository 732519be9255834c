import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linksig.cli
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


# Runs linksig.cli.main in a fresh interpreter, then reports on stderr
# which linksig modules were loaded, and whether numpy, dataclasses,
# fractions and decimal were, along the way.
NUMPY_PROBE = """
import sys
import linksig.cli
code = linksig.cli.main(sys.argv[1:])
mods = sorted(m for m in sys.modules if m.startswith("linksig."))
print(f"linksig_modules={','.join(mods)}", file=sys.stderr)
for name in ("numpy", "dataclasses", "fractions", "decimal"):
    print(f"{name}_loaded={name in sys.modules}", file=sys.stderr)
sys.exit(code)
"""


def run_probed(*args):
    """(completed process, {probe key: value}) from the probe's last five lines."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    probe = dict(line.split("=", 1) for line in r.stderr.splitlines()[-5:])
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


def test_only_sigma_imports_numpy(tmp_path):
    """Each command loads only the modules of its own route."""
    lattice_route = ("linksig.pillowcase", "linksig.su2", "linksig.signature")
    path = tmp_path / "system.json"
    path.write_text(json.dumps(seifert_to_json(torus_seifert(2))))
    for args, numpy_loaded, not_loaded, light in (
        (("h", "--ell", "3", "--alpha", "1/2", "1/2"), False, lattice_route, True),
        (("verify", "--ell", "3", "--res", "8"), False, lattice_route, True),
        (
            ("regions", "--ell", "3", "--res", "8", "--format", "svg"),
            False,
            lattice_route,
            True,
        ),
        (
            ("curve", "--ell", "2", "--alpha", "1/3", "1/5", "--samples", "16"),
            False,
            ("linksig.signature", "linksig.verify"),
            False,
        ),
        (
            ("sigma", "--system", str(path), "--alpha", "1/2", "1/2"),
            True,
            ("linksig.pillowcase", "linksig.verify"),
            False,
        ),
    ):
        r, probe = run_probed(*args)
        assert r.returncode == EXIT_OK
        assert probe["numpy_loaded"] == str(numpy_loaded), args
        assert probe["dataclasses_loaded"] == "False", args
        assert not probe["linksig_modules"] & set(not_loaded), (args, probe)
        if light:
            assert probe["fractions_loaded"] == probe["decimal_loaded"] == "False", args
        assert r.stdout == run(*args).stdout
    assert r.stdout == "signature=-1 nullity=0\n"


PUBLIC_NAMES = [
    "AnglePair", "BadSystemError", "ColoredBraidWord", "CurveSample",
    "DegeneratePhiError", "FitFailureError", "Inertia", "LinksigError",
    "NotDefinedError", "NullityWarning", "OmegaOneError", "PillowPoint",
    "PositiveOnlyError", "RationalAngle", "SeifertSystem", "SignedIntersection",
    "TransversalityFailureError", "UnitQuaternion", "ZeroLinkingError", "act",
    "alexander_eval", "angle_pair", "build_H", "check_mod4_congruence",
    "check_sigma_jump_dichotomy", "closure_linking_number", "conway_potential_torus",
    "eval_T", "eval_U", "gamma_theta_chebyshev", "gamma_theta_quaternion",
    "h_invariant", "inertia", "intersections", "is_defined", "region_grid",
    "rep_count", "sample_curve", "seifert_from_json", "seifert_system",
    "seifert_to_json", "sigma_eval", "sigma_torus_closed", "solve_phi",
    "sweep_main_identity", "symmetrized_sigma", "torus_braid", "torus_seifert",
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


# stderr of a rejected rational angle, recorded from the Fraction-based parse
TOP_USAGE = "usage: linksig [-h] {h,curve,regions,sigma,verify} ...\n"
ANGLE_ERRORS = {
    "1/0": "linksig: error: bad rational angle '1/0'\n",
    "a/b": "linksig: error: bad rational angle 'a/b'\n",
    "3/2": "linksig: error: angle 3/2 is outside (0, pi)\n",
    "0/5": "linksig: error: angle 0/5 is outside (0, pi)\n",
    "-1/2": "linksig: error: angle -1/2 is outside (0, pi)\n",
    "0.5": "linksig: error: angle '0.5' is not of the form p/q (use --radians for decimals)\n",
    "1/-2": "linksig: error: angle 1/-2 is outside (0, pi)\n",
    "1/2/3": "linksig: error: bad rational angle '1/2/3'\n",
    "1/1": "linksig: error: angle 1/1 is outside (0, pi)\n",
}


def test_rational_angle_parse_errors(capsys):
    parser = linksig.cli._build_parser()
    for text, message in ANGLE_ERRORS.items():
        with pytest.raises(SystemExit) as exc:
            linksig.cli._parse_angle(parser, text, False)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err == TOP_USAGE + message, text
    for text, (p, q) in {"-1/-2": (1, 2), "2/4": (1, 2), " 1/2": (1, 2), "1_0/20": (1, 2)}.items():
        angle = linksig.cli._parse_angle(parser, text, False)
        assert (angle.p, angle.q) == (p, q)
    # on the command line; "-1/2" reads as an option there
    for text in ("1/0", "a/b", "3/2", "0/5", "0.5"):
        r = run("h", "--ell", "3", "--alpha", text, "1/2")
        assert (r.returncode, r.stderr) == (EXIT_USAGE, TOP_USAGE + ANGLE_ERRORS[text])
    r = run("h", "--ell", "3", "--alpha", "-1/2", "1/2")
    assert r.returncode == EXIT_USAGE
    assert r.stderr == (
        "usage: linksig h [-h] --ell ELL --alpha A A [--radians]\n"
        "linksig h: error: argument --alpha: expected 2 arguments\n"
    )


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


def test_sigma_replays_the_benchmark_pools(tmp_path, capsys):
    """Every sigma command of the benchmark's expected pools, in-process, gives
    its recorded exit code and stdout SHA-256."""
    expected = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text(encoding="utf-8")
    )
    files = {}
    for name, system in expected["systems"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(system), encoding="utf-8")
        files["{" + name + "}"] = str(path)
    entries = expected["queries"]["sigma_torus"] + expected["queries"]["sigma_nontorus"]
    assert len(entries) == 96
    for entry in entries:
        code = linksig.cli.main([files.get(a, a) for a in entry["argv"]])
        out = capsys.readouterr().out
        assert code == entry["exit"], entry["argv"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"], entry["argv"]
