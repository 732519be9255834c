"""The line gauge: which lines of src/linksig the in-process Tier-1 run reaches.

    python tests/line_gauge.py [pytest options] > gauge.txt

runs pytest over Tier-1 (tests/) under the standard library's tracer,
trace.Trace(count=1, trace=0), with pytest's report on stderr, and prints
pytest's exit status, how many executable lines of src/linksig were reached,
out of how many, then each reached line as file:line, sorted.  A change that
deletes tests keeps this set: diff the output before and after.  PYTHONPATH
holds src, so that the tests that start a Python find the package; those
processes are not traced, so lines that only they reach read as missed.  The
tracer slows every test, so a time bound may fail under it: the script
reports pytest's exit status and exits with it, and no bound is loosened for
it.  Hypothesis draws from a fixed seed (0, unless another --hypothesis-seed
is given), so two runs of one tree agree.  pytest does not collect this file
(no test_ prefix), and CI does not run it.
"""

import contextlib
import dis
import os
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "linksig"


def executable_lines(path):
    """The line numbers of `path` that start a bytecode instruction."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def main(args):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if not any(a.startswith("--hypothesis-seed") for a in args):
        args = ["--hypothesis-seed=0", *args]
    tracer = trace.Trace(count=1, trace=0)
    with contextlib.redirect_stdout(sys.stderr):
        status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *args, "tests"])
    files = sorted(PACKAGE.glob("*.py"))
    possible = {(f.name, line) for f in files for line in executable_lines(f)}
    counts = tracer.results().counts
    reached = sorted({(Path(name).name, line) for name, line in counts
                      if Path(name).parent == PACKAGE} & possible)
    print(f"pytest exit status {int(status)}")
    print(f"reached {len(reached)} of {len(possible)} executable lines of src/linksig")
    for name, line in reached:
        print(f"{name}:{line}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
