"""Traced-run entry hook: installs the span tracer before any program code runs.

Python imports ``sitecustomize`` at start-up from ``sys.path``; the traced
run puts this directory first on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR``, so every serving process — including process-pool
children, which start as fresh interpreters — wraps the public functions
listed in ``perfbench/tracing.py`` and writes its span totals at exit.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.install()
