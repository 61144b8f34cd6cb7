"""Run the ``ml`` command line with the benchmark tracer installed.

Usage: PERFBENCH_TRACE_DIR=<dir> python3 perfbench/traced_ml.py <ml arguments>

The whole ``cli.run()`` call is the root span ``cli.run``; each process
writes its spans to ``<dir>/spans-<pid>.marshal`` when it exits.
"""

import os
import sys

import tracer

rec = tracer.install(os.environ["PERFBENCH_TRACE_DIR"])

from multilattice import cli  # noqa: E402  (imported by install already)

sys.argv[0] = "ml"
with rec.span("cli.run"):
    cli.run()
