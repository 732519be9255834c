"""Write perfbench/expected.json: the command pools and their expected output.

    PYTHONPATH=src python3 perfbench/gen_expected.py

Each pooled command is run in-process through linksig.cli.main and its exit
code and the SHA-256 of its stdout are stored.  The file is made once, from
the commit that defined the benchmark, and then kept: CLI output must stay
byte-identical, so later commits are checked against these digests, never
against themselves.  The pools are drawn from a fixed generator, not from
a run's --seed; a run's seed picks and orders commands from the pools.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import linksig  # noqa: E402
from linksig import cli  # noqa: E402

POOL_SEED = 20240829
PER_SLOT = 48
MAX_DEN = 10_000
MAX_ELL = 100_000
H_STRATA = 5
GRID_RES = 24
WARMUP = ["h", "--ell", "3", "--alpha", "1/2", "1/2"]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    data = out.getvalue().encode("utf-8")
    return {"argv": argv, "exit": code, "sha256": hashlib.sha256(data).hexdigest()}


def rational(rng: random.Random) -> Fraction:
    q = rng.randint(2, MAX_DEN)
    return Fraction(rng.randint(1, q - 1), q)


def text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def admissible_pair(rng, ell):
    while True:
        a = linksig.angle_pair(rational(rng), rational(rng))
        if linksig.is_defined(ell, a):
            return a


def log_uniform_ell(rng, lo, hi):
    mag = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return max(2, min(MAX_ELL, mag)) * rng.choice((1, -1))


def h_command(rng, stratum):
    edges = [2 * (MAX_ELL / 2) ** (k / H_STRATA) for k in range(H_STRATA + 1)]
    ell = log_uniform_ell(rng, edges[stratum], edges[stratum + 1])
    a = admissible_pair(rng, ell)
    return ["h", "--ell", str(ell), "--alpha", str(a.alpha1), str(a.alpha2)]


def on_locus_command(rng):
    """An h query exactly on a root line: alpha1 + alpha2 or alpha1 - alpha2 + pi
    equal to pi*m/|ell| with m != |ell|."""
    while True:
        ell = log_uniform_ell(rng, 2, MAX_ELL)
        big_l = abs(ell)
        m = rng.randint(1, 2 * big_l - 1)
        a1 = rational(rng)
        target = Fraction(m, big_l)
        a2 = target - a1 if rng.random() < 0.5 else a1 + 1 - target
        if m == big_l or not 0 < a2 < 1:
            continue
        if not linksig.is_defined(ell, linksig.angle_pair(a1, a2)):
            return ["h", "--ell", str(ell), "--alpha", text(a1), text(a2)]


def non_torus_system(rng, rank):
    app = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
    apm = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(rank)]

    def t(m):
        return [list(r) for r in zip(*m)]

    return {"mu": 2, "rank": rank, "matrices": {"++": app, "+-": apm, "-+": t(apm), "--": t(app)}}


def main() -> None:
    rng = random.Random(POOL_SEED)
    systems = {f"torus{ell}": linksig.seifert_to_json(linksig.torus_seifert(ell))
               for ell in range(-8, 9) if abs(ell) >= 2}
    systems["nontorus"] = non_torus_system(rng, 6)
    slots: dict[str, list[dict]] = {}
    for stratum in range(H_STRATA):
        slots[f"h{stratum}"] = [run(h_command(rng, stratum)) for _ in range(PER_SLOT)]
    slots["h_locus"] = [run(on_locus_command(rng)) for _ in range(PER_SLOT)]
    for kind in ("torus", "nontorus"):
        entries = []
        for _ in range(PER_SLOT):
            if kind == "torus":
                ell = rng.choice([e for e in range(-8, 9) if abs(e) >= 2])
                name, a = f"torus{ell}", admissible_pair(rng, ell)
            else:
                name, a = "nontorus", linksig.angle_pair(rational(rng), rational(rng))
            path = HERE / f"_{name}.json"
            path.write_text(json.dumps(systems[name]), encoding="utf-8")
            try:
                entry = run(["sigma", "--system", str(path), "--alpha", str(a.alpha1), str(a.alpha2)])
            finally:
                path.unlink()
            entry["argv"][2] = "{" + name + "}"
            entries.append(entry)
        slots[f"sigma_{kind}"] = entries
    curve = []
    for _ in range(PER_SLOT):
        ell = rng.choice([e for e in range(-8, 9) if e != 0])
        a = admissible_pair(rng, ell)
        curve.append(run(["curve", "--ell", str(ell), "--alpha", str(a.alpha1), str(a.alpha2),
                          "--samples", "512", "--path", "both"]))
    slots["curve"] = curve
    grid_ells = [e for e in range(-6, 7) if abs(e) >= 2]
    slots["verify"] = [run(["verify", "--ell", str(rng.choice(grid_ells)), "--res", str(GRID_RES)])
                       for _ in range(PER_SLOT)]
    slots["regions"] = [run(["regions", "--ell", str(rng.choice(grid_ells)), "--res", str(GRID_RES),
                             "--format", "svg"]) for _ in range(PER_SLOT)]
    data = {
        "pool_seed": POOL_SEED,
        "warmup": run(WARMUP),
        "queries": slots,
        "systems": systems,
    }
    bad = [e for slot, group in slots.items() for e in group
           if e["exit"] != (2 if slot == "h_locus" else 0)]
    if bad:
        raise SystemExit(f"unexpected exit codes: {bad[:3]}")
    (HERE / "expected.json").write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
