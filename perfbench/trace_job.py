"""Run one ``blochlat`` CLI job with every layer traced.

Usage: python3 perfbench/trace_job.py SPANS_FILE -- CLI_ARGS...

Installs the tracer, calls ``blochlat.cli.main`` with ``CLI_ARGS`` (the
arguments ``python -m blochlat.cli`` would take), writes the recorded spans
to ``SPANS_FILE`` as JSON once the job has ended and exits with the job's
exit code.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import blochlat.cli

    try:
        code = blochlat.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
