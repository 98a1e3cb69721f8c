"""``_fork.forked``: the child's return value comes back whole, an unread
child is still reaped, a raising child is an OSError that names it, and a
raising block kills the child."""

from __future__ import annotations

import os
import time

import pytest

from conftest import assert_no_child_processes
from mimdsim._fork import forked

MIB = 2**20


def _mib() -> bytes:
    return bytes(range(256)) * (MIB // 256)


def test_a_result_larger_than_a_pipe_buffer_arrives_whole():
    with forked(lambda: {"pid": os.getpid(), "data": _mib()}, "probe") as result:
        got = result()
        assert result() == got
    assert got["pid"] != os.getpid()
    assert got["data"] == _mib()
    assert_no_child_processes()


def test_a_result_that_is_never_requested_is_still_reaped():
    # the child blocks on its full pipe until the end of the block reads it
    with forked(_mib, "probe"):
        pass
    assert_no_child_processes()


def _raising() -> None:
    raise ValueError("no answer")


def test_a_raising_child_is_an_os_error_naming_it():
    with pytest.raises(OSError, match=r"^probe failed: ValueError: no answer$"):
        with forked(_raising, "probe") as result:
            result()
    assert_no_child_processes()
    # unread, it raises at the end of a clean block
    with pytest.raises(OSError, match=r"^probe failed: ValueError: no answer$"):
        with forked(_raising, "probe"):
            pass
    assert_no_child_processes()


def test_a_raising_block_kills_the_child():
    started = time.monotonic()
    with pytest.raises(KeyError):
        with forked(lambda: time.sleep(60), "probe"):
            raise KeyError("block")
    assert time.monotonic() - started < 30
    assert_no_child_processes()
