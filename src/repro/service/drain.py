"""Deferred signal handling + in-flight draining, shared by every server.

The serving commands (``stgq serve --jsonl``, ``stgq worker``, ``stgq
http``) all face the same shutdown problem: a SIGTERM that raises
``SystemExit`` on the spot tears the process down *through* an in-flight
batch, dropping responses whose requests were already accepted.  The
orchestrator-friendly contract is the opposite — **stop accepting, finish
what you accepted, then exit** — and this module is the one implementation
of it:

* :class:`ShutdownSignal` — installs SIGINT/SIGTERM handlers that *record*
  the signal (a ``threading.Event`` plus the signum) instead of raising.
  The serving loop polls :attr:`ShutdownSignal.triggered` at its batch
  boundaries, finishes the batch it is on, writes the responses, and only
  then unwinds.
* :func:`wait_for_drain` — block until an ``in_flight()`` probe reports
  zero (or a deadline passes), the generic "wait for the accepted work to
  finish" step the HTTP gateway and the TCP worker take before they close
  connections.

``stgq http`` and ``stgq worker`` both block on a :class:`ShutdownSignal`,
then drain their servers with :func:`wait_for_drain`.

Exit codes: a drained shutdown is a *successful* run — the launchers
(``LocalWorkerCluster``, k8s) treat exit 0 on SIGTERM as "worker obeyed",
and the pre-existing worker behaviour already returned 0.  Use
:meth:`ShutdownSignal.exit_code` for that convention (0 after a handled
signal, since the drain completed).
"""

from __future__ import annotations

import signal
import threading
import time
from types import FrameType
from typing import Callable, Optional

__all__ = ["ShutdownSignal", "wait_for_drain"]


class ShutdownSignal:
    """Deferred SIGINT/SIGTERM: record the signal, let the loop drain.

    Usage::

        stop = ShutdownSignal().install()
        try:
            while not stop.triggered:
                batch = accept_next()        # bounded waits, so the loop
                serve(batch)                 # notices `triggered` promptly
        finally:
            stop.uninstall()
        return stop.exit_code()

    ``install``/``uninstall`` must run on the main thread (CPython only
    delivers signals there); both are no-ops for signals whose handler
    could not be installed, so library callers on non-main threads degrade
    to "never triggered" instead of crashing.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._previous: dict = {}
        self.signum: Optional[int] = None

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        self.signum = signum
        self._event.set()

    def install(self, *signums: int) -> "ShutdownSignal":
        """Install handlers (default SIGINT + SIGTERM); returns ``self``."""
        for signum in signums or (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # pragma: no cover - not the main thread
                pass
        return self

    def uninstall(self) -> None:
        """Restore the previous handlers (idempotent)."""
        previous, self._previous = self._previous, {}
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    def __enter__(self) -> "ShutdownSignal":
        return self.install()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.uninstall()

    @property
    def triggered(self) -> bool:
        """True once a handled signal arrived."""
        return self._event.is_set()

    def trigger(self) -> None:
        """Trip the shutdown programmatically (tests, embedding servers)."""
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a signal arrives (or ``timeout``); True if triggered."""
        return self._event.wait(timeout)

    def exit_code(self) -> int:
        """Process exit code after a *drained* shutdown.

        0 whether or not a signal arrived: a shutdown that drained cleanly
        is a successful run (the convention ``stgq worker`` already had,
        which ``LocalWorkerCluster`` and orchestrators assert on).
        """
        return 0


def wait_for_drain(
    in_flight: Callable[[], int],
    timeout: float = 30.0,
    poll: float = 0.02,
) -> bool:
    """Wait until ``in_flight()`` reports zero; True when fully drained.

    The generic second half of a graceful shutdown: the caller has stopped
    accepting work, and this blocks (bounded by ``timeout``) until the
    already-accepted work count reaches zero.  Returns ``False`` on
    timeout — the caller should log the abandonment, not pretend the drain
    succeeded.
    """
    deadline = time.monotonic() + timeout
    while in_flight() > 0:
        if time.monotonic() >= deadline:
            return False
        time.sleep(poll)
    return True
