"""The onlinecolor CLI with the benchmark's span wrappers installed.

    python perfbench/traced_cli.py <cli arguments>

Takes the same arguments as ``python -m onlinecolor.cli``.  Spans go to
``$PERFBENCH_SPAN_DIR/spans-<pid>.npz``: this process writes its file when
the command returns, and each fork-started pool worker writes its own when
it exits.
"""
from __future__ import annotations

import os
import sys
from multiprocessing import util

import tracing
from onlinecolor import cli


def main() -> int:
    tracer = tracing.Tracer(int(os.environ.get("PERFBENCH_RUN_ID", "0")))
    tracing.install(tracer, cli_module=True)
    util.register_after_fork(tracer, tracing.Tracer._after_fork)
    span = tracer.begin(tracer.name_id("cli.main"))
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.finish(span)
        tracer.dump(os.path.join(os.environ["PERFBENCH_SPAN_DIR"], f"spans-{os.getpid()}.npz"))


if __name__ == "__main__":
    sys.exit(main())
