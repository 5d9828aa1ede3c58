"""Run one filterlab CLI command with the per-layer tracer installed.

Usage: python3 bench/cli_child.py TRACE_JSON SUBCOMMAND [ARGS...]

Times ``import filterlab`` in this fresh interpreter, wraps the layers, calls
``filterlab.cli.main`` and writes the per-layer totals to TRACE_JSON.  The
exit code is the CLI's own.  ``src`` under the working directory is put on
the import path, as for ``python -m filterlab.cli`` with PYTHONPATH=src.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    trace_file, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.abspath("src"))
    t0 = time.perf_counter()
    import filterlab  # noqa: F401

    import_s = time.perf_counter() - t0
    import tracer

    recorder = tracer.install()
    code = filterlab.cli.main(argv)
    totals = recorder.take()
    totals["cli.import_s"] = import_s
    with open(trace_file, "w") as fh:
        json.dump(totals, fh)
    sys.exit(code)
