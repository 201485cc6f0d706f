"""Run one lanefuse CLI command with the benchmark's span wrappers installed.

Usage: python3 perfbench/tracecli.py SPANS_JSON PARENT_SPAN RUN_ID -- ARGS...
The spans and counts go to SPANS_JSON when the command ends; the exit code
is the command's own.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    out, parent, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(run_id, root=parent)
    install(tracer)
    import lanefuse.cli

    try:
        return lanefuse.cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
