"""Run `elections` CLI arguments in-process under the span tracer.

    python3 perfbench/traced_simulate.py SPANS.json simulate --trials 20000 ...

The spans stay in memory during the run and are written to SPANS.json once
the command returns; the exit code is the command's.  `elections` must be
importable (the benchmark puts the checkout's `src` on PYTHONPATH).
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import elections.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = elections.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"elections_file": elections.__file__, "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
