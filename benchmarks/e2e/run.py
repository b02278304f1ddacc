"""Driver entry point: ``python3 benchmarks/e2e/run.py --workload ...``.

Works from a plain checkout (no install, no PYTHONPATH): runs the
``workload`` command of :mod:`benchmarks.e2e.cli` in a child process
with the checkout root and its ``src/`` on the path, hands it the
driver's arguments, and returns only when every process that child
started has ended.

The child is there for that last part.  A pooled cluster run forks
workers (joined before ``run()`` returns) and creates a shared-memory
segment, and the first segment makes ``multiprocessing`` start its
resource tracker: a helper process that ends only once it sees its
owner's pipe close, some milliseconds *after* the owner has exited.
Measured in this process, the benchmark would return while that helper
still ran.  Here the workload has a session of its own, this process
adopts whatever it orphans, and on every way out (result, failure,
SIGTERM) the session is ended and every adopted process waited for.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

#: ``prctl`` option: orphaned descendants are re-parented to this
#: process instead of init, so it can wait for them (Linux only).
PR_SET_CHILD_SUBREAPER = 36
#: How long a process the workload left behind may take to end by itself.
GRACE_S = 5.0


def _terminated(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def _end_session(leader: int) -> None:
    """End what is left of the workload's session and wait for it.

    SIGTERM first: the resource tracker ignores it, and once its owners
    are gone it unlinks any segment they leaked and exits by itself
    (milliseconds after a clean run).  What still runs ``GRACE_S`` later
    is killed.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)     # already ending
    deadline = time.perf_counter() + GRACE_S
    while True:
        late = time.perf_counter() > deadline
        try:
            os.killpg(leader, signal.SIGKILL if late else signal.SIGTERM)
        except ProcessLookupError:
            pass                              # nothing is left to signal
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                time.sleep(0.002)             # some still running
        except ChildProcessError:
            return                            # no child, adopted or own


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("no program under test: %s has no src/repro" % root,
              file=sys.stderr)
        return 2
    paths = [os.path.join(root, "src"), root]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, _terminated)
    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "workload"] + sys.argv[1:],
        env=environment, start_new_session=True)
    try:
        return child.wait()
    finally:
        _end_session(child.pid)


if __name__ == "__main__":
    sys.exit(main())
