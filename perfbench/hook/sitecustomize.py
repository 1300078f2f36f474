"""Install the per-layer tracer in processes the traced benchmark starts.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one.  The traced ``service`` and ``fleet_sweep``
runs put this directory on ``PYTHONPATH`` and name a dump directory in
``PERFBENCH_TRACE_DIR``, so the daemon, its workers, the fleet workers
and their supervised children all record layer spans (see
``perfbench/layers.py``).  Without that variable this file does nothing.
"""

import os
import sys

_DUMP_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _DUMP_DIR:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    from perfbench import layers

    _tracer = layers.LayerTracer()
    layers.install(_tracer)
    layers.ProcessDump(_tracer, _DUMP_DIR)
