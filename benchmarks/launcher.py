"""Traced child of the cli-verify workload.

    python3 benchmarks/launcher.py TRACE_OUT.json CLI_ARGS...

Installs the span wrappers, runs legladder.cli.main(CLI_ARGS) with the
tracer enabled, writes the spans and counters to TRACE_OUT.json and exits
with main's return code. Untraced runs invoke `python -m legladder.cli`
instead, so they carry none of this.
"""

import json
import sys
import time

import harness
import tracer as tracing


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    harness.use_checkout_source()
    t0 = time.perf_counter()
    import legladder.cli as cli
    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.begin(0)
    t1 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t1
        tracer.end()
        with open(trace_out, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "import_s": import_s, "main_s": main_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
