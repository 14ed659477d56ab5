"""Traced stand-in for ``python -m sumgraph.cli``.

Runs the CLI's ``main`` unchanged and appends one line to stderr with the
moment the interpreter reached this script, the time to import
``sumgraph.cli``, the time in ``main``, and calls and time of
``parse_graph`` and ``emit_graph``.  Used only by the traced run.
"""

import time

ENTERED = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
_start = time.perf_counter()
import sumgraph.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start
CLI_MARK = "bench-cli-trace "
timings = {"parse_graph": [0, 0.0], "emit_graph": [0, 0.0]}


def _timed(name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[name][0] += 1
            timings[name][1] += time.perf_counter() - start

    return traced


if __name__ == "__main__":
    for _name in timings:
        setattr(cli, _name, _timed(_name, getattr(cli, _name)))
    _start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    main_s = time.perf_counter() - _start
    sys.stdout.flush()
    record = {"entered": ENTERED, "import_s": IMPORT_S, "main_s": main_s, **timings}
    print(CLI_MARK + json.dumps(record), file=sys.stderr)
    sys.exit(code)
