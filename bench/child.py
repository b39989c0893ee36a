"""Run one satsync command in this fresh interpreter, traced or cut short.

    python3 bench/child.py setup -- <satsync arguments>
    python3 bench/child.py trace <spans.json> <run id> -- <satsync arguments>

``setup`` ends the process as soon as the first closed loop has been
assembled, so its wall time is the set-up cost: interpreter start,
imports, parsing, synthesis, building and assembly. It exits with 0 only
when that point was reached. ``trace`` runs the whole command under the
tracer and writes the spans to ``spans.json`` when the command ends.
"""

from __future__ import annotations

import os
import sys

SETUP_NOT_REACHED = 3


def _setup(argv):
    from satsync import cli, simulation

    assemble = simulation.assemble

    def assemble_then_exit(*args, **kwargs):
        assemble(*args, **kwargs)
        os._exit(0)

    simulation.assemble = assemble_then_exit
    cli.main(argv)
    return SETUP_NOT_REACHED


def _trace(spans_path, run_id, argv):
    from satsync import cli
    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.run(cli.main, argv)
    finally:
        tracer.dump(spans_path)


def main(args):
    split = args.index("--")
    mode, params, argv = args[0], args[1:split], args[split + 1:]
    if mode == "setup":
        return _setup(argv)
    if mode == "trace":
        return _trace(params[0], params[1], argv)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
