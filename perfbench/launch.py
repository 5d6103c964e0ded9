"""Run one `qpae` command under the benchmark's tracer.

    python3 launch.py TRACE_JSON SPAWN_MONOTONIC_NS QPAE_ARGS...

SPAWN_MONOTONIC_NS is time.monotonic_ns() in the parent just before it
started this process, so `startup_ms` covers interpreter start and
`import qpae`. The exit code and stderr are those of `python -m qpae`.
"""

import sys
import time

import qpae.cli

startup_ms = (time.monotonic_ns() - int(sys.argv[2])) / 1e6

from tracing import Tracer  # noqa: E402  (after the start-up timestamp)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return qpae.cli.main(sys.argv[3:])
    finally:
        tracer.enabled = False
        tracer.dump(sys.argv[1], startup_ms=startup_ms)


if __name__ == "__main__":
    sys.exit(main())
