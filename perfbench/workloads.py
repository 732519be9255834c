"""The benchmark workloads and the checks on their output.

queries runs linksig as cold subprocesses, one at a time (a closed loop
with one client): `python -m linksig ARG...` with src/ on
PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, so that runs leave no files in
the tree.  engine calls the library in-process.  The machine this was tuned
on has 2 cores, so nothing runs in parallel.

Every op passes or counts as failed: a cold command must exit with the code
and print the bytes recorded in expected.json (a verify report must also
read failed_total == 0); an engine evaluation must equal the closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
STARTUP_PROBES = 5
QUERY_BLOCK = ("h0", "h1", "h2", "h3", "h4", "h_locus",
               "sigma_torus", "sigma_nontorus", "curve", "curve", "verify", "regions")
ENGINE_ELLS = (3, 5, 20, 50, 200)
ENGINE_POINTS = 64  # per ell, a quarter of them float radians
LATTICE_PRIMES = [n for n in range(401, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
MIN_COLD_S = 0.04  # below any cold start, so a plan never runs dry
# Medians of the pace tasks on the tuning machine; they set the scale only.
COLD_NOMINAL_S = 0.150
NP_NOMINAL_S = 0.006
PACE_EVERY_ROUNDS = 8


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def reference_cold() -> None:
    """A fresh interpreter that imports numpy, the bulk of a cold command."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT, check=True)


def reference_np():
    """A task: one fixed rank-199 Hermitian eigen-solve, the engine's largest call."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((199, 199)) + 1j * rng.standard_normal((199, 199))
    a = a + a.conj().T
    return lambda: np.linalg.eigvalsh(a)


class Pace:
    """How slowly the machine runs during one run, measured on a fixed task.

    The speed of the shared machine this was tuned on drifts by up to a
    third within minutes.  For cold start-up and for dense linear algebra
    a fixed task of the same kind, timed between the ops, drifts with them.
    Times are divided, and rates multiplied, by `slowness`: the task's
    median time in this run over its nominal time.
    """

    def __init__(self, task, nominal_s: float):
        self.task, self.nominal_s = task, nominal_s
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.task()
        self.samples.append(time.perf_counter() - start)

    @property
    def slowness(self) -> float:
        return statistics.median(self.samples) / self.nominal_s


@dataclass
class Op:
    """One cold command and what it must produce."""

    argv: list[str]
    exit: int
    sha256: str


@dataclass
class Outcome:
    ok: bool
    wall_s: float
    rss_mb: float
    out_bytes: int
    trace: dict | None = None


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"failed: {what}")


def run_cold(op: Op, workdir: Path, trace_path: Path | None = None) -> Outcome:
    """Run one command in a fresh interpreter and check its output."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "linksig", *op.argv]
    else:
        cmd = [sys.executable, str(HERE / "boot.py"), str(trace_path), *op.argv]
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = out_path.read_bytes()
    ok = proc.returncode == op.exit and hashlib.sha256(data).hexdigest() == op.sha256
    if ok and op.argv[0] == "verify":
        ok = json.loads(data)["failed_total"] == 0
    trace = None
    if trace_path is not None:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        ok = ok and trace["restored"]
    return Outcome(ok, wall, usage.ru_maxrss / 1024.0, len(data), trace)


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def closed_loop(batches, seconds: float, run_batch) -> None:
    """Run batches one after another; start the next only if it should end
    within `seconds`, judged by the last batch.  The first always runs."""
    start = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        run_batch(batch)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break


# ------------------------------------------------------------- queries ----


def _op(entry: dict, files: dict[str, str] | None = None) -> Op:
    argv = list(entry["argv"])
    if files:
        argv = [files.get(a, a) for a in argv]
    return Op(argv, entry["exit"], entry["sha256"])


def _queries_plan(expected, rng, workdir, seconds):
    files = {}
    for name, system in expected["systems"].items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(system), encoding="utf-8")
        files["{" + name + "}"] = str(path)
    pool = expected["queries"]
    blocks = []
    for _ in range(math.ceil(seconds / MIN_COLD_S / len(QUERY_BLOCK))):
        block = [_op(rng.choice(pool[slot]), files) for slot in QUERY_BLOCK]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _setup_queries(seed, seconds, workdir, expected, result, pace: Pace):
    """Draw the inputs, write the JSON files, and warm the interpreter and
    the page cache with one cold command; repeated, timed, median kept."""
    times, plan = [], None
    warm = _op(expected["warmup"])
    for _ in range(SETUP_REPEATS):
        pace.sample()
        start = time.perf_counter()
        plan = _queries_plan(expected, random.Random(seed), workdir, seconds)
        outcome = run_cold(warm, workdir)
        times.append(time.perf_counter() - start)
        result.count(outcome.ok, f"warm-up {' '.join(warm.argv)}")
    return plan, statistics.median(times)


def _startup_probe(workdir, expected, result) -> dict[str, float]:
    """The interpreter floor, and the import of linksig.cli on top of it."""
    env = child_env()
    interp, imports, numpy = [], [], []
    warm = _op(expected["warmup"])
    for i in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        interp.append(time.perf_counter() - start)
        outcome = run_cold(warm, workdir, workdir / f"probe{i}.json")
        result.count(outcome.ok, "startup probe")
        imports.append(outcome.trace["import_ns"] / 1e6)
        numpy.append(outcome.trace["numpy_loaded"])
    return {
        "startup.interp_ms": statistics.median(interp) * 1e3,
        "startup.import_ms": statistics.median(imports),
        "startup.numpy_loaded": float(max(numpy)),
    }


def paced(raw: dict, pace: Pace) -> dict:
    """The raw metrics at the nominal machine speed, memory left alone; the
    slowness is recorded in `raw`."""
    slow = pace.slowness
    out = {k: v / slow for k, v in raw.items()}
    out["items_per_s"] = raw["items_per_s"] * slow
    out["peak_rss_mb"] = raw["peak_rss_mb"]
    raw["pace_slowness"] = slow
    return out


def queries_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    expected = load_expected()
    result = Result()
    pace = Pace(reference_cold, COLD_NOMINAL_S)
    plan, setup_s = _setup_queries(seed, seconds, workdir, expected, result, pace)
    ran: list[Op] = []
    outcomes: list[Outcome] = []

    def run_batch(batch):
        pace.sample()
        for op in batch:
            outcome = run_cold(op, workdir)
            result.count(outcome.ok, " ".join(op.argv))
            ran.append(op)
            outcomes.append(outcome)

    closed_loop(plan, seconds, run_batch)
    pace.sample()
    walls = [o.wall_s for o in outcomes]
    if not trace:
        result.raw = {
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(o.rss_mb for o in outcomes),
            "items_per_s": len(ran) / sum(walls),
            "op_p50_ms": quantile(walls, 0.5) * 1e3,
            "op_p90_ms": quantile(walls, 0.9) * 1e3,
        }
        result.metrics = paced(result.raw, pace)
        return result
    startup = _startup_probe(workdir, expected, result)
    traced = []
    for i, op in enumerate(ran):
        outcome = run_cold(op, workdir, workdir / f"trace{i}.json")
        result.count(outcome.ok, "traced " + " ".join(op.argv))
        traced.append(outcome)
    dumps = [o.trace for o in traced]
    for problem in tracing.check_spans(dumps):
        result.count(False, problem)
    result.metrics = tracing.layer_metrics(
        dumps,
        len(ran),
        [o.out_bytes for o in outcomes],
        sum(o.wall_s for o in traced) / sum(walls),
        startup,
    )
    return result


# -------------------------------------------------------------- engine ----


def _engine_points(linksig, rng: random.Random, ell: int) -> list:
    """Exact lattice angles (p/P)pi with P a prime above 2*200, so no lattice
    point lies on a root line; every fourth point is a uniform float pair."""
    points = []
    for k in range(ENGINE_POINTS):
        if k % 4 == 3:
            a1, a2 = (rng.uniform(1e-6, math.pi - 1e-6) for _ in range(2))
            alpha = linksig.AnglePair.from_radians(a1, a2)
        else:
            big_p = rng.choice(LATTICE_PRIMES)
            alpha = linksig.angle_pair(
                linksig.RationalAngle(rng.randint(1, big_p - 1), big_p),
                linksig.RationalAngle(rng.randint(1, big_p - 1), big_p),
            )
        points.append((alpha, list(alpha.omega())))
    return points


def engine_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    result = Result()
    sys.path.insert(0, str(SRC))
    import linksig

    ells = [s * e for e in ENGINE_ELLS for s in (1, -1)]
    pace = Pace(reference_np(), NP_NOMINAL_S)
    times = []
    for _ in range(SETUP_REPEATS):
        pace.sample()
        # the import once more, in a fresh interpreter, then the inputs
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import linksig"], env=child_env(), cwd=ROOT,
                       check=True)
        rng = random.Random(seed)
        systems = {ell: linksig.torus_seifert(ell) for ell in ells}
        points = {ell: _engine_points(linksig, rng, ell) for ell in ells}
        for ell in ells:
            linksig.sigma_eval(systems[ell], points[ell][0][1])
        times.append(time.perf_counter() - t0)
    setup_s = statistics.median(times)

    def rounds():
        k = 0
        while True:
            order = list(ells)
            rng.shuffle(order)
            yield from ((ell, points[ell][k % ENGINE_POINTS]) for ell in order)
            k += 1

    def measure(calls):
        """Time sigma_eval over `calls`, or, given None, over whole rounds
        (one call per system) until `seconds` have passed."""
        drawn, lat, out = [], [], []
        clock = time.perf_counter_ns
        sigma_eval = linksig.sigma_eval
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always", linksig.NullityWarning)
            t0 = time.perf_counter()
            for i, call in enumerate(rounds() if calls is None else calls):
                if calls is None and i % len(ells) == 0:
                    if time.perf_counter() - t0 >= seconds:
                        break
                    if i % (PACE_EVERY_ROUNDS * len(ells)) == 0:
                        pace.sample()
                ell, (_, omegas) = call
                c0 = clock()
                value = sigma_eval(systems[ell], omegas)
                lat.append(clock() - c0)
                out.append(value)
                drawn.append(call)
        return drawn, lat, out

    calls, lat, out = measure(None)
    pace.sample()

    def check(values):
        for (ell, (alpha, _)), value in zip(calls, values):
            try:
                ok = value == linksig.sigma_torus_closed(ell, alpha)
            except linksig.NotDefinedError:
                ok = False
            result.count(ok, f"sigma_eval ell={ell} alpha={alpha}")

    check(out)
    if not trace:
        lat_ms = [x / 1e6 for x in lat]
        result.raw = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": len(calls) / (sum(lat) / 1e9),
            "op_p50_ms": quantile(lat_ms, 0.5),
            "op_p90_ms": quantile(lat_ms, 0.9),
        }
        result.metrics = paced(result.raw, pace)
        return result
    startup = _startup_probe(workdir, load_expected(), result)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        _, traced_lat, traced_out = measure(calls)
    finally:
        restore()
    result.count(not tracing.wrapped_names(), "tracing wrappers restored")
    check(traced_out)
    dumps = [tracer.dump()]
    for problem in tracing.check_spans(dumps):
        result.count(False, problem)
    result.metrics = tracing.layer_metrics(dumps, len(calls), [], sum(traced_lat) / sum(lat),
                                            startup)
    return result


WORKLOADS = {"queries": queries_workload, "engine": engine_workload}
