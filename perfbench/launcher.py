"""Start ``xarchd`` with the benchmark's layer probes installed.

::

    python3 perfbench/launcher.py STORE_DIR SPANS_JSON

Serves ``STORE_DIR`` on an ephemeral port through the server's public
entry point (:func:`repro.server.http.serve`, the same banner line as
``python -m repro.server serve STORE_DIR --port 0``), with every layer
boundary wrapped by :mod:`spans`.  On SIGTERM (or SIGINT) the server
stops and the recorded spans are written to ``SPANS_JSON``.  Run by the
traced ``serve-mixed`` workload.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    root, spans_path = argv
    from repro.server.http import serve

    from spans import Tracer, install_program_probes, install_server_probes

    tracer = Tracer()
    install_program_probes(tracer)
    install_server_probes(tracer)
    tracer.enabled = True
    # serve() stops on KeyboardInterrupt; route SIGTERM there too, and
    # undo an ignored SIGINT inherited from a background shell.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        serve(root, port=0, quiet=True)
    finally:
        tracer.enabled = False
        with open(spans_path, "w") as handle:
            json.dump({"spans": tracer.records()}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
