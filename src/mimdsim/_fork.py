"""The one fork discipline, shared by the two forked processes: the trace
export child that writes a run's CSVs behind its kernel
(``kernel.CsvStream``), and the child that runs the tail of a sweep's
entries (``cli._run_in_two``). Neither forks again.
A child's return value or failure comes back over one pipe; a child that
needs more input than a function to call, such as the row counts the
export child waits for, opens a pipe of its own.

A child writes its files into the output directory's one hidden stage
(``staged``), never into place, and ``forked`` alone decides what becomes
of it: a clean block publishes the whole stage into the directory it
stages for (``publish``), after the reap, and the stage is then discarded
(``discard``) on every path, so a failed run leaves an earlier run's files
as they were. A child whose work raised, or that finds its parent dead
when its work is done, discards the stage itself, since nobody will
publish it.
"""

from __future__ import annotations

import os
import signal
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from pathlib import Path


def staged(outdir: Path) -> Path:
    """The hidden stage of ``outdir``: what a forked process writes for it
    goes there until it is complete, then ``publish`` moves it into place."""
    return outdir / ".part"


def publish(stage: Path, outdir: Path) -> None:
    """Move everything in ``stage`` into ``outdir``, creating it as
    ``kernel.export_trace`` would. A directory in the stage is merged into
    its namesake, whose other files stay; a link is moved, not followed. A
    stage that was never made publishes nothing."""
    if stage.is_dir():
        outdir.mkdir(parents=True, exist_ok=True)
        with os.scandir(stage) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    publish(Path(entry.path), outdir / entry.name)
                else:
                    os.replace(entry.path, outdir / entry.name)


def discard(stage: Path) -> None:
    """Remove ``stage`` whole, as far as it can be: this runs on failure
    paths and before a run, whose own error is the one to report. A link,
    at the stage or in it, is removed, not followed."""
    import shutil

    if stage.is_symlink():
        with suppress(OSError):
            stage.unlink()
    shutil.rmtree(stage, ignore_errors=True)


@contextmanager
def forked(child: Callable[[], object], what: str,
           stage: Path) -> Iterator[Callable[[], object]]:
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

    ``stage`` is where the child writes (``staged``). After the reap, a
    clean block publishes it whole into ``stage.parent``, and then every
    path discards what is left of it. A child whose ``child()`` raised, or
    whose parent is no longer this process once ``child()`` is done,
    discards it itself, so a failed child's stage is never published.
    """
    def pickle():   # loaded only where a reply is made or read
        import pickle
        return pickle

    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            try:
                reply, code = pickle().dumps(child()), 0
            except Exception as exc:
                reply = f"{type(exc).__name__}: {exc}".encode(errors="replace")
            if code or os.getppid() != parent:   # nobody will publish the stage
                discard(stage)
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
        yield lambda: pickle().loads(reap())
    except BaseException:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
        with suppress(OSError):
            reap()
        raise
    else:
        reap()
        publish(stage, stage.parent)
    finally:
        discard(stage)
