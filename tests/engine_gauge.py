"""The engine gauge: the in-process time of one sigma_eval call and of its two steps.

    python tests/engine_gauge.py [--seed N] [--repeat N]

draws 64 points per ell for ell = +-3, +-5, +-20, +-50 and +-200, the torus
systems of rank 2, 4, 19, 49 and 199, from random.Random(seed) (default 3)
the way perfbench's engine workload draws them: three in four are exact
lattice angles (p/P)pi with P a prime in 401..1999, so that none lies on a
root line, and every fourth is a uniform float pair.  For each rank it
prints the time of one call, in microseconds, of

- sigma_eval(system, omegas), the whole call;
- _band(system, omegas), the omega checks and the sums of build_H;
- _count(diags, size, order), the checks and the walk of inertia, over
  bands that _band formed beforehand;

each the best of `repeat` (default 7) timeit runs of NUMBER passes over
the ell's points of both signs, divided by the calls.  The two steps do not
add up to the call: sigma_eval also reads the system's order and tests the
nullity.  Only the standard library is read, so the numbers time linksig
alone.  pytest does not collect this file (no test_ prefix), and CI does not
run it: its numbers depend on the machine, so compare them only between runs
on one machine, alternating the trees compared; on a busy machine, take the
least of several runs.
"""

import argparse
import math
import random
import sys
import timeit
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import linksig  # noqa: E402
from linksig.signature import _band, _count  # noqa: E402

ELLS = (3, 5, 20, 50, 200)
POINTS = 64  # per ell, a quarter of them float radians
NUMBER = 20  # passes per timeit run, so that one run lasts about 15 ms
PRIMES = [p for p in range(401, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def points(rng, ell):
    """The omegas of POINTS angle pairs, drawn as the engine workload draws them."""
    out = []
    for k in range(POINTS):
        if k % 4 == 3:
            alpha = linksig.AnglePair.from_radians(*(rng.uniform(1e-6, math.pi - 1e-6)
                                                     for _ in range(2)))
        else:
            p = rng.choice(PRIMES)
            alpha = linksig.angle_pair(linksig.RationalAngle(rng.randint(1, p - 1), p),
                                       linksig.RationalAngle(rng.randint(1, p - 1), p))
        out.append(list(alpha.omega()))
    return out


def best_us(stmt, calls, repeat):
    """The best of `repeat` runs of NUMBER calls of stmt(), in microseconds
    per call of what stmt() calls `calls` times."""
    return min(timeit.repeat(stmt, number=NUMBER, repeat=repeat)) / (NUMBER * calls) * 1e6


def main(args):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeat", type=int, default=7)
    opts = parser.parse_args(args)
    rng = random.Random(opts.seed)
    warnings.simplefilter("ignore", linksig.NullityWarning)
    print(f"seed {opts.seed}, best of {opts.repeat}, microseconds per call")
    print(f"{'rank':>5} {'sigma_eval':>11} {'_band':>8} {'_count':>8}")
    for ell in ELLS:
        cases = [(s, omegas) for s in (linksig.torus_seifert(ell), linksig.torus_seifert(-ell))
                 for omegas in points(rng, ell)]
        bands = [(_band(s, omegas), s.order) for s, omegas in cases]
        sigma_eval = linksig.sigma_eval
        row = (
            best_us(lambda: [sigma_eval(s, omegas) for s, omegas in cases], len(cases),
                    opts.repeat),
            best_us(lambda: [_band(s, omegas) for s, omegas in cases], len(cases), opts.repeat),
            best_us(lambda: [_count(diags, size, n) for (diags, size), n in bands], len(cases),
                    opts.repeat),
        )
        print(f"{ell - 1:>5} " + " ".join(f"{x:>{w}.2f}" for x, w in zip(row, (11, 8, 8))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
