"""The one fork discipline, shared by every forked process: the LP worker,
the trace export child that writes a run's CSVs behind its kernel
(``kernel.CsvStream``) and the helper it forks for the last rows, and the
child that runs the tail of a sweep's pass 1 (``cli._measure_in_two``). A
child that needs more than a function to call, such as the row counts the
export child waits for, or that has results to return, as the LP worker
and the sweep child have, uses a pipe of its own; ``forked`` carries only
a failure."""

from __future__ import annotations

import os
import signal
from collections.abc import Callable, Iterator
from contextlib import contextmanager


@contextmanager
def forked(child: Callable[[], object], what: str) -> Iterator[None]:
    """Run ``child()`` in a forked process while the block runs in this one.

    The child leaves only through ``os._exit``, so it never flushes this
    process's stdio; if ``child()`` raises, ``TypeName: message`` comes back
    over a pipe. When the block raises, the child is SIGKILLed; on every
    path it is reaped before the ``with`` ends. A child that failed under a
    clean block raises ``OSError("<what> failed: ...")``, naming its
    exception or, without one, its exit code. Use it only in a process that
    runs no other thread, since the fork copies just the calling one.
    """
    err_r, err_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(err_r)
        code = 1
        try:
            child()
            code = 0
        except Exception as exc:
            os.write(err_w, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        finally:
            os._exit(code)
    os.close(err_w)
    with open(err_r, "rb") as errors:
        try:
            yield
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            failure = errors.read().decode(errors="replace")
            status = os.waitpid(pid, 0)[1]
    if status != 0:
        exit_code = os.waitstatus_to_exitcode(status)
        raise OSError(f"{what} failed: {failure or f'exit code {exit_code}'}")
