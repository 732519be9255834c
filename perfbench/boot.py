"""Run one linksig command in this fresh interpreter with tracing installed.

    python perfbench/boot.py TRACE_JSON ARG...

is the traced twin of `python -m linksig ARG...`: the same stdout, stderr and
exit code, plus TRACE_JSON holding the spans, the import time of
linksig.cli and whether numpy was loaded when the command ended.
"""

import json
import sys
import time

sys.dont_write_bytecode = True

import tracing  # noqa: E402  (this file's directory is sys.path[0])


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import linksig.cli

    import_ns = time.perf_counter_ns() - start
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    code = 1
    try:
        code = linksig.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        restore()
        record = tracer.dump()
        record["import_ns"] = import_ns
        record["numpy_loaded"] = int("numpy" in sys.modules)
        record["restored"] = not tracing.wrapped_names()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
