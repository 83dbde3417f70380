"""Run ``repro-xic`` with the benchmark's layer wrappers installed.

    python3 perfbench/launch.py ROLE REPRO-XIC-ARGS...

``ROLE`` is ``server`` or ``node`` (see ``tracing.install``).  On
``SIGUSR1`` the process writes its accumulators to
``$PERFBENCH_TRACE_DIR/ROLE-PID-N.json`` (N counts the signals), so the
benchmark can read them at the edges of its measuring window.
"""

import os
import signal
import sys

from tracing import Tracer, install


def main() -> int:
    role, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer, role)
    trace_dir = os.environ["PERFBENCH_TRACE_DIR"]
    seq = [0]

    def snapshot(_signum, _frame) -> None:
        seq[0] += 1
        tracer.dump(os.path.join(trace_dir,
                                 f"{role}-{os.getpid()}-{seq[0]}.json"))

    signal.signal(signal.SIGUSR1, snapshot)
    from repro.cli.main import main as cli

    return cli(argv)


if __name__ == "__main__":
    sys.exit(main())
