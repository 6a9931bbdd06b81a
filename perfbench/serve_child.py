"""Launch ``repro serve`` as the benchmark's server child.

Usage: ``python3 perfbench/serve_child.py [--trace-out FILE] <repro serve args>``

Runs the program's own CLI entry point in this process, with the
process's CPU time measured by a common.SpeedProbe for the server's
whole life: on SIGUSR1 the child prints ``CPU_LINE <cpu seconds>
<seconds at the reference speed>``, so the parent can take each phase's
share.  The speed is probed in this process, beside the work it scales.
With ``--trace-out`` the layers are instrumented first, the speed is
probed only when the parent asks, and the spans are written to FILE
when the server stops (on SIGINT, as Ctrl-C would).  The program is
found through ``PYTHONPATH``, which the parent sets to the checkout's
``src``.
"""

from __future__ import annotations

import signal
import sys

#: Prefix of the line the child prints on SIGUSR1.
CPU_LINE = "perfbench-cpu"


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from common import SpeedProbe
    from repro.cli import main as cli_main

    tracer = None
    if trace_out is not None:
        from layers import instrument
        from spans import Tracer

        tracer = Tracer("server")
        instrument(tracer)
    probe = SpeedProbe(periodic=trace_out is None)
    try:
        with probe.measure() as spent:
            def report(*_):
                spent.update()
                print(f"{CPU_LINE} {spent.cpu_s!r} {spent.scaled_s!r}", flush=True)

            signal.signal(signal.SIGUSR1, report)
            return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
