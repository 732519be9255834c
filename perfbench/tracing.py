"""Spans and counters around the public functions of each linksig module.

The wrappers live here, not in src/: `install` binds each wrapper over the
module attribute and over every `from .x import y` copy of it in the other
linksig modules (is_defined, for one, is bound separately in verify,
signature, pillowcase and cli), and `restore` puts the originals back.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent span, self time and a
  few attributes), for functions called a handful of times per command or
  once per engine evaluation;
* agg: calls, summed self time and a tally, for functions called once or
  more per grid point, where a record per call would cost more than the
  call;
* count: calls only, for the innermost helpers (a quaternion product, a
  Chebyshev evaluation).

A call's self time is its duration minus the durations of the wrapped calls
made inside it.  Records stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

SPAN, AGG, COUNT = "span", "agg", "count"

RANKS = (2, 4, 19, 49, 199)
COMMANDS = ("h", "curve", "sigma", "regions", "verify")


def _cmd(args, result):
    return {"cmd": args[0][0]}


def _sweep(args, result):
    return {"points": result.checked + result.skipped_on_roots, "admissible": result.checked}


def _region(args, result):
    cells = [v for row in result.values for v in row]
    sentinel = sys.modules["linksig.verify"].SENTINEL
    return {"points": len(cells), "admissible": sum(v != sentinel for v in cells)}


def _curve(args, result):
    quat = result.provenance == sys.modules["linksig.pillowcase"].QUAT_PATH
    return {"path": "quat" if quat else "cheb", "samples": len(result.points)}


def _system_rank(args, result):
    return {"rank": args[0].rank}


def _matrix_rank(args, result):
    return {"rank": int(result.shape[0])}


def _inertia(args, result):
    return {"rank": result.rank, "nullity": result.n_zero}


# (module, attribute, kind, metric prefix, describe or tally)
TARGETS = (
    ("linksig.cli", "main", SPAN, "cli.main", _cmd),
    ("linksig.verify", "sweep_main_identity", SPAN, "verify.sweep_main_identity", _sweep),
    ("linksig.verify", "region_grid", SPAN, "verify.region_grid", _region),
    ("linksig.pillowcase", "sample_curve", SPAN, "pillowcase.sample_curve", _curve),
    ("linksig.signature", "sigma_eval", SPAN, "signature.sigma_eval", _system_rank),
    ("linksig.signature", "build_H", SPAN, "signature.build_H", _matrix_rank),
    ("linksig.signature", "inertia", SPAN, "signature.inertia", _inertia),
    ("linksig.torus_rep", "is_defined", AGG, "torus_rep.is_defined", bool),
    ("linksig.torus_rep", "h_invariant", AGG, "torus_rep.h_invariant", None),
    ("linksig.torus_rep", "solve_phi", AGG, "torus_rep.solve_phi", len),
    ("linksig.signature", "sigma_torus_closed", AGG, "signature.sigma_torus_closed", None),
    ("linksig.chebyshev", "eval_T", COUNT, "chebyshev.eval_T", None),
    ("linksig.su2", "UnitQuaternion.__mul__", COUNT, "su2.qmul", None),
)


class Tracer:
    """In-memory spans, aggregates and counters for one process."""

    def __init__(self):
        self.spans: list = []
        self.aggs: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [child ns, enclosing span id]

    def timed(self, fn, name, keep, extra):
        clock = time.perf_counter_ns
        stack, spans = self._stack, self.spans
        agg = self.aggs.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0, sid]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self_ns = dur - frame[0]
                agg[0] += 1
                agg[1] += self_ns
                if keep:
                    attrs = extra(args, result) if ok else {}
                    spans[sid] = (name, start, end, parent, self_ns, attrs)
                elif ok and extra is not None:
                    agg[2] += int(extra(result))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "aggs": {k: list(v) for k, v in self.aggs.items()},
            "counts": dict(self.counts),
        }


def _linksig_modules():
    return [m for n, m in list(sys.modules.items()) if n == "linksig" or n.startswith("linksig.")]


def install(tracer: Tracer):
    """Wrap every target; return a function that restores the originals."""
    undo = []
    modules = _linksig_modules()
    for mod_name, attr, kind, name, extra in TARGETS:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            orig = owner.__dict__[meth]
            setattr(owner, meth, tracer.counted(orig, name))
            undo.append((owner, meth, orig))
            continue
        orig = getattr(module, attr)
        if kind == COUNT:
            wrapper = tracer.counted(orig, name)
        else:
            wrapper = tracer.timed(orig, name, kind == SPAN, extra)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, orig))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


def wrapped_names() -> list[tuple[object, str]]:
    """Every (owner, name) in the loaded linksig modules that holds a wrapper."""
    found = []
    for mod in _linksig_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "__wrapped__") and getattr(value, "__module__", "") == __name__:
                found.append((mod, key))
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, "__module__", "") == __name__:
                        found.append((value, meth))
    return found


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(dumps, ops, output_bytes, overhead_ratio, startup) -> dict[str, float]:
    """Per-layer metrics from the dumps of one traced pass over `ops` ops."""
    spans = [s for d in dumps for s in d["spans"]]
    aggs: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for d in dumps:
        for k, v in d["aggs"].items():
            acc = aggs.setdefault(k, [0, 0, 0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def named(name):
        return [s for s in spans if s[0] == name]

    def agg(name):
        return aggs.get(name, [0, 0, 0])

    m = dict(startup)
    for cmd in COMMANDS:
        own = [s[4] for s in named("cli.main") if s[5].get("cmd") == cmd]
        m[f"cli.main.self_ms.{cmd}"] = statistics.fmean(own) / 1e6 if own else 0.0
    m["cli.output_bytes"] = statistics.fmean(output_bytes) if output_bytes else 0.0
    grid = named("verify.sweep_main_identity") + named("verify.region_grid")
    for name in ("verify.sweep_main_identity", "verify.region_grid"):
        m[f"{name}.self_ms"] = sum(s[4] for s in named(name)) / ops / 1e6
    m["verify.points"] = sum(s[5].get("points", 0) for s in grid) / ops
    calls, self_ns, _ = agg("torus_rep.is_defined")
    m["torus_rep.is_defined.calls"] = calls / ops
    m["torus_rep.is_defined.self_ms"] = self_ns / ops / 1e6
    for cmd in ("verify", "regions"):
        # one dump per cold command: is_defined calls that returned True
        # over the admissible grid points of that command
        own = [d for d in dumps if any(s[0] == "cli.main" and s[5].get("cmd") == cmd
                                       for s in d["spans"])]
        true_calls = sum(d["aggs"].get("torus_rep.is_defined", [0, 0, 0])[2] for d in own)
        admissible = sum(s[5].get("admissible", 0) for d in own for s in d["spans"])
        m[f"torus_rep.is_defined.calls_per_point.{cmd}"] = (
            true_calls / admissible if admissible else 0.0
        )
    calls, self_ns, _ = agg("torus_rep.h_invariant")
    m["torus_rep.h_invariant.calls"] = calls / ops
    m["torus_rep.h_invariant.self_ms"] = self_ns / ops / 1e6
    m["torus_rep.solve_phi.phis_built"] = agg("torus_rep.solve_phi")[2] / ops
    calls, self_ns, _ = agg("signature.sigma_torus_closed")
    m["signature.sigma_torus_closed.calls"] = calls / ops
    m["signature.sigma_torus_closed.self_ms"] = self_ns / ops / 1e6
    for part in ("build_H", "inertia"):
        for r in RANKS:
            own = [s[4] for s in named(f"signature.{part}") if s[5].get("rank") == r]
            m[f"signature.{part}.self_us.r{r}"] = _median(own) / 1e3
    m["signature.nullity_warnings"] = float(
        sum(1 for s in named("signature.inertia") if s[5].get("nullity", 0) > 0)
    )
    samples = {}
    for path in ("quat", "cheb"):
        own = [s for s in named("pillowcase.sample_curve") if s[5].get("path") == path]
        samples[path] = sum(s[5]["samples"] for s in own)
        dur = sum(s[2] - s[1] for s in own)
        m[f"pillowcase.sample_curve.us_per_sample.{path}"] = (
            dur / samples[path] / 1e3 if samples[path] else 0.0
        )
    qmul = counts.get("su2.qmul", 0)
    m["su2.qmul_per_sample"] = qmul / samples["quat"] if samples["quat"] else 0.0
    m["chebyshev.eval_T.calls"] = counts.get("chebyshev.eval_T", 0) / ops
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def check_spans(dumps) -> list[str]:
    """Problems with the recorded spans: negative self time, or children
    whose durations add up to more than their parent's."""
    problems = []
    for d in dumps:
        spans = d["spans"]
        child_ns = [0] * len(spans)
        for s in spans:
            if s[4] < 0:
                problems.append(f"{s[0]} has negative self time {s[4]} ns")
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        for s, c in zip(spans, child_ns):
            if c > s[2] - s[1]:
                problems.append(f"{s[0]}: children take {c} ns of {s[2] - s[1]} ns")
    return problems
