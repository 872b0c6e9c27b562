"""Run lieflow's CLI with span tracing and save the spans as JSON.

Usage: python3 perfbench/tracecli.py SPANS.json ARGV...
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402

if __name__ == "__main__":
    import lieflow.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = lieflow.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)
