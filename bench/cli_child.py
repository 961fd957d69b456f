"""Traced stand-in for `python3 -m sphererank.cli`: same argv, same stdout and
exit code, plus the child's spans and counters written to SPANS_OUT.

    python3 bench/cli_child.py SPANS_OUT ARGV...   (with src on PYTHONPATH)
"""

import json
import sys

from tracing import Tracer

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    frame = tracer.push("cli.import")
    import sphererank.cli as cli

    tracer.pop(frame)
    tracer.install()
    frame = tracer.push("cli.dispatch")
    code = cli.dispatch(argv)
    tracer.pop(frame)
    tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    sys.exit(code)
