"""Fork-based map for splitting work across processes.

Children are forked, so they inherit the caller's data (field tables,
bitsets, defining sets) instead of receiving a pickled copy, and only
their results cross a pipe.  POSIX only: :func:`fork_map` needs
``os.fork``.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
from typing import BinaryIO, Callable, Sequence


def fork_map(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]`` in ``len(jobs)`` processes, the caller
    included: each of ``jobs[1:]`` runs in a forked child while the caller
    runs ``jobs[0]``.  ``jobs`` holds at least one job.

    A result must be marshal-able (ints, strs, tuples, lists, dicts, ...).
    A child sends ``marshal.dumps`` of it through a pipe and leaves through
    ``os._exit``, so the caller's stdio buffers are never flushed twice.
    An exception in a child is raised again in the caller with its type
    and message.  Every child is reaped before this returns or raises;
    children whose result was never read are killed first."""
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        for job in jobs[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                os.close(rfd)
                _run_child(fn, job, wfd)
            os.close(wfd)
            children.append((pid, os.fdopen(rfd, "rb")))
        first = fn(jobs[0])
        return [first] + [_receive(pid, pipe) for pid, pipe in children]
    finally:
        for pid, pipe in children:
            if not pipe.closed:  # the map failed before reading this child
                pipe.close()
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(fn, job, wfd: int) -> None:
    """Run one job in a forked child, send its result or its exception
    through ``wfd`` and exit without returning to the caller's code."""
    status = 1
    try:
        try:
            data = marshal.dumps((True, fn(job)))
        except Exception as exc:
            kind = type(exc)
            data = marshal.dumps((False, kind.__module__, kind.__qualname__, str(exc)))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, pipe: BinaryIO):
    with pipe:
        data = pipe.read()
    if not data:
        raise ChildProcessError(f"worker process {pid} exited without a result")
    ok, *payload = marshal.loads(data)
    if ok:
        return payload[0]
    raise _rebuild(*payload)


def _rebuild(module: str, qualname: str, message: str) -> BaseException:
    """The child's exception type called with its message, or a
    RuntimeError naming both when that type cannot be rebuilt here."""
    kind = sys.modules.get(module)
    for part in qualname.split("."):
        kind = getattr(kind, part, None)
    if isinstance(kind, type) and issubclass(kind, BaseException):
        try:
            return kind(message)
        except TypeError:  # a constructor that takes more than a message
            pass
    return RuntimeError(f"{module}.{qualname}: {message}")
