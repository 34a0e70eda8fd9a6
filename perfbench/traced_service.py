"""Serve exactly as ``python -m repro.service`` does, with layer spans on.

Usage: ``python perfbench/traced_service.py <spans.json> [service args...]``
with ``src`` on ``PYTHONPATH``.  The layer wrappers of :mod:`spans` are
installed before the service boots; the spans are written to
``<spans.json>`` after the service has drained and stopped.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanLog  # noqa: E402


def main() -> int:
    out_path, service_args = sys.argv[1], sys.argv[2:]
    from repro.service.__main__ import main as serve

    log = SpanLog()
    log.install()
    try:
        code = serve(service_args)
    finally:
        log.uninstall()
        log.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
