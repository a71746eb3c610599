"""Leak-free by construction: the harness exits with no child process,
no non-daemon thread and no shared-memory segment left behind — on
success, on failure and on SIGTERM — or it exits non-zero and says what
it found.

The rules the rest of the package follows (and this module enforces at
exit):

* every backend, service and gateway is opened in a ``with`` block or an
  ``ExitStack`` and closed in ``finally``;
* a process pool is forked before any thread exists in its workload and
  closed before the workload returns;
* ``REPRO_GIT_SHA`` is set and ``REPRO_LEDGER`` unset before ``repro`` is
  imported, so the ledger never spawns ``git`` and never writes a file;
* no shared-memory transport is enabled;
* SIGTERM / SIGINT become ``SystemExit`` so ``finally`` blocks run — raised
  at the harness's next checkpoint (between set-ups and between rounds,
  at most a round away), not from inside the handler: an exception thrown
  at an arbitrary bytecode can land inside a half-finished ``close()`` or
  inside ``ExitStack`` itself and skip the very teardown it is meant to
  trigger;
* a wall-clock watchdog kills the workload's children and fails the run
  instead of letting it hang; if teardown then blocks too, a last-resort
  timer kills again and leaves through ``os._exit``;
* the harness never backgrounds, daemonises or re-executes itself.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["WatchdogExpired", "prepare_environment", "guarded", "leaks",
           "kill_children"]

#: Seconds teardown may take after the watchdog fired before the process
#: leaves through ``os._exit``.
LAST_RESORT_S = 10.0


class WatchdogExpired(SystemExit):
    """The workload overran its wall-clock budget."""


def prepare_environment() -> None:
    """Environment the program reads at import or first use."""
    os.environ["REPRO_GIT_SHA"] = "e2e-bench"
    os.environ.pop("REPRO_LEDGER", None)


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _proc_children() -> list[int]:
    """Pids under ``/proc`` whose parent is this process."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces/parens.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) >= 2 and int(fields[1]) == me:
            found.append(int(entry))
    return found


def kill_children(grace_s: float = 2.0) -> None:
    """Terminate, then kill, every multiprocessing child still alive."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    deadline = time.monotonic() + grace_s
    for child in children:
        child.join(max(deadline - time.monotonic(), 0.0))
        if child.is_alive():
            child.kill()
            child.join(1.0)


def leaks(shm_before: set[str]) -> list[str]:
    """What a clean exit must not leave; empty when clean."""
    found = []
    children = multiprocessing.active_children()
    if children:
        found.append(f"active children: {[c.pid for c in children]}")
    pids = _proc_children()
    if pids:
        found.append(f"child pids under /proc: {pids}")
    segments = sorted(_shm_segments() - shm_before)
    if segments:
        found.append(f"shared-memory segments: {segments}")
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread() and not t.daemon]
    if threads:
        found.append(f"non-daemon threads: {threads}")
    return found


def _last_resort() -> None:
    for _ in range(20):
        kill_children(grace_s=0.2)
        if not multiprocessing.active_children():
            break
    sys.stderr.write("procguard: teardown blocked after watchdog; "
                     "leaving through os._exit\n")
    sys.stderr.flush()
    os._exit(70)


@contextmanager
def guarded(watchdog_s: float):
    """Run one workload under signal conversion, a watchdog and the exit
    leak check. Yields ``checkpoint()``, which the harness calls wherever
    stopping is safe and which raises ``SystemExit(128 + signum)`` once
    SIGTERM or SIGINT has arrived; raises ``SystemExit(3)`` on leaving if
    anything is left behind."""
    shm_before = _shm_segments()
    received: list[int] = []

    def on_signal(signum, frame):
        received.append(signum)

    def checkpoint() -> None:
        if received:
            raise SystemExit(128 + received[0])

    def on_alarm(signum, frame):
        sys.stderr.write(f"procguard: watchdog fired after {watchdog_s:.0f}s; "
                         "killing children and failing the run\n")
        timer = threading.Timer(LAST_RESORT_S, _last_resort)
        timer.daemon = True
        timer.start()
        kill_children(grace_s=0.5)
        raise WatchdogExpired(4)

    previous = {sig: signal.signal(sig, handler) for sig, handler in (
        (signal.SIGTERM, on_signal), (signal.SIGINT, on_signal),
        (signal.SIGALRM, on_alarm))}
    signal.setitimer(signal.ITIMER_REAL, watchdog_s)
    try:
        yield checkpoint
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        found = leaks(shm_before)
        if found:
            kill_children()
            sys.stderr.write("procguard: left behind: " + "; ".join(found)
                             + "\n")
            raise SystemExit(3)
