"""Run one pfinhier CLI invocation under the tracer.

Usage: python3 perfbench/clichild.py REPORT.json ARG...

Behaves like `python -m pfinhier.cli ARG...` (same stdout, stderr and
exit code) and afterwards writes the tracer's counters and spans to
REPORT.json for worker.py to merge.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    from pfinhier import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"snapshot": tracer.snapshot(), "spans": tracer.spans()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
