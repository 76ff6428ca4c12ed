"""Traced stand-in for ``gnar``: ``cli_child.py SPAN_FILE <gnar arguments>``.

Times ``import gnarlib.cli``, wraps gnarlib's public calls with the
benchmark's tracer, runs ``gnarlib.cli.main`` on the arguments, and writes
the spans and counts to SPAN_FILE for the parent to merge.  The command's
outputs are the same bytes ``gnar`` writes.
"""

import json
import sys
import time

sys.dont_write_bytecode = True

import spans  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gnarlib.cli

    t1 = time.perf_counter()
    tracer = spans.Tracer(run_id="cli")
    tracer.install()
    try:
        return gnarlib.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(span_file, "w") as fh:
            json.dump({"import": [t0, t1], "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main())
