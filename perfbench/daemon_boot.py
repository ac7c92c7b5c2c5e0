"""Start ``repro-mgrts`` with the service-layer wrappers installed.

Usage: ``python3 perfbench/daemon_boot.py SPANS_OUT serve [serve options]``

The wrappers trace the daemon's parent process (protocol parsing and
encoding, the memo cache, supervision of each solve child); the spans
are written to ``SPANS_OUT`` when the daemon exits.  Solves run in
forked children, whose layers the in-process workloads cover.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = spans.Tracer()
    spans.install_service(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
