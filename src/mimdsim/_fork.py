"""The one fork discipline, shared by the two forked processes: the trace
export child that writes a run's CSVs behind its kernel
(``kernel.CsvStream``), and the child that runs the tail of a sweep's
entries (``cli._run_in_two``). Neither forks again.
A child's return value or failure comes back over one pipe; a child that
needs more input than a function to call, such as the row counts the
export child waits for, opens a pipe of its own."""

from __future__ import annotations

import os
import signal
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress


@contextmanager
def forked(child: Callable[[], object], what: str) -> Iterator[Callable[[], object]]:
    """Run ``child()`` in a forked process while the block runs in this one.

    The block gets ``result``: ``result()`` reaps the child and returns
    what ``child()`` returned, sent back pickled. The child leaves only
    through ``os._exit``, so it never flushes this process's stdio. When
    the block raises, the child is SIGKILLed; on every path it is reaped,
    its pipe read to the end, before the ``with`` ends. A child that
    failed raises ``OSError("<what> failed: ...")``, naming its exception
    or, without one, its exit code, from ``result()`` and again at the end
    of a clean block. Use it only in a process that runs no other thread,
    since the fork copies just the calling one.
    """
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            try:
                reply, code = pickle.dumps(child()), 0
            except Exception as exc:
                reply = f"{type(exc).__name__}: {exc}".encode(errors="replace")
            with open(write_fd, "wb") as pipe:
                pipe.write(reply)
        finally:
            os._exit(code)
    os.close(write_fd)
    reaped: list = []   # [reply, exit code], once reaped

    def reap() -> bytes:
        if not reaped:
            with open(read_fd, "rb") as pipe:
                reaped.append(pipe.read())
            reaped.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        reply, code = reaped
        if code:
            # only exit code 1 comes with a message; another may cut a reply short
            failure = reply.decode(errors="replace") if code == 1 else ""
            raise OSError(f"{what} failed: {failure or f'exit code {code}'}")
        return reply

    try:
        yield lambda: pickle.loads(reap())
    except BaseException:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
        with suppress(OSError):
            reap()
        raise
    reap()
