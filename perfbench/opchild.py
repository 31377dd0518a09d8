"""Run one CLI op in this fresh interpreter and print a JSON envelope.

Usage: ``python3 perfbench/opchild.py '<spec json>'`` where the spec holds
``src`` (the directory to import convformer_sim from), ``argv`` (the CLI
arguments), ``trace``, ``op_id``, ``spans_path`` and ``setup_only``.

The envelope carries the monotonic clock at entry to and exit from
``convformer_sim.cli.main``, its return code, the text it wrote to stdout,
this process's peak RSS and, when tracing, the tracer's summary. The
monotonic clock is system-wide, so the parent can time the interpreter
start against it.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

CLOCK = time.CLOCK_MONOTONIC

EXIT_WRONG_PACKAGE = 97  # convformer_sim was not imported from spec["src"]


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import convformer_sim.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"convformer_sim imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return EXIT_WRONG_PACKAGE

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["op_id"])
        tracer.install()

    out = io.StringIO()
    code = None
    t_enter = time.clock_gettime(CLOCK)
    if not spec["setup_only"]:
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(spec["argv"])
            except SystemExit as e:
                code = e.code
    t_exit = time.clock_gettime(CLOCK)

    envelope = {"t_enter": t_enter, "t_exit": t_exit,
                "code": code, "stdout": out.getvalue(),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        envelope["trace"] = tracer.summary()
        if spec["spans_path"]:
            tracer.write_spans(spec["spans_path"])
    sys.stdout.write(json.dumps(envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main())
