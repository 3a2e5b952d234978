"""One traced CLI process: ``python3 bench/coldboot.py <globalzeta arguments>``.

Imports ``globalzeta.cli``, wraps the traced functions, runs
``globalzeta.cli.main`` on the arguments and exits with its code, so
stdout is exactly what ``python -m globalzeta.cli`` prints.  The import
time and per-layer totals go to stderr as the last line, after MARK.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import tracing

MARK = "#coldboot-trace "


def main() -> int:
    start = time.perf_counter()
    cli = importlib.import_module("globalzeta.cli")
    import_ms = (time.perf_counter() - start) * 1e3
    tracer = tracing.Tracer()
    tracer.install()
    code = cli.main(sys.argv[1:])
    totals = tracing.new_totals()
    tracer.fold(totals)
    totals["requests"] = 1
    sys.stdout.flush()
    sys.stderr.write(MARK + json.dumps({"import_ms": import_ms, "trace": totals}) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
