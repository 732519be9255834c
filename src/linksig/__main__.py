"""The entry of `python -m linksig` and of the `linksig` console script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command in sys.argv and return its exit code.

    Freezing what is alive when the command ends lets the interpreter's
    last collections at exit skip it.  cli.main does not freeze, because
    tests and the benchmark harness call it in-process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
