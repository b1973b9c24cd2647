"""One ``mc-check`` invocation with layer spans recorded in-process.

Usage: ``python traced_cli.py SPANS_DIR INVOCATION -- check ARGS...``

Imports ``repro.cli`` (timed as the ``cli.import`` span), wraps the
layer functions (see :mod:`spans`) and calls ``repro.cli.main`` with the
arguments after ``--``.  Stdout and the exit status are the CLI's own;
the spans land in ``SPANS_DIR`` as one JSON file per process.
"""

import sys
import time


def main() -> int:
    spans_dir, invocation, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    import spans

    store = spans.SpanStore(spans_dir, int(invocation))
    span_id = store.open()
    start = time.perf_counter()
    import repro.cli
    store.close("cli.import", start, span_id, {})
    spans.install(store)
    code = repro.cli.main(argv)
    store.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
