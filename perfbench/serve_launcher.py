"""Start ``repro serve`` with the benchmark's layer tracer installed.

Usage: ``python3 perfbench/serve_launcher.py DUMP.json SERVE_ARGS...``

The wrappers go in before the server is built, the server runs through
the ordinary ``repro.cli`` entry point, and when it is told to stop
(SIGTERM, handled like Ctrl-C) the collected accumulators and spans are
written to ``DUMP.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    dump = Path(argv[0])
    signal.signal(signal.SIGTERM, _interrupt)
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.uninstall()
        dump.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
