"""``_fork.forked``: the child's return value comes back whole, an unread
child is still reaped, a raising child is an OSError that names it, a
raising block kills the child, and the block's end discards the child's
stage on every path, after what the block published."""

from __future__ import annotations

import os
import time

import pytest

from conftest import assert_no_child_processes
from mimdsim._fork import forked, publish, staged

MIB = 2**20


def _mib() -> bytes:
    return bytes(range(256)) * (MIB // 256)


def test_a_result_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    with forked(lambda: {"pid": os.getpid(), "data": _mib()}, "probe",
                staged(tmp_path)) as result:
        got = result()
        assert result() == got
    assert got["pid"] != os.getpid()
    assert got["data"] == _mib()
    assert_no_child_processes()


def test_a_result_that_is_never_requested_is_still_reaped(tmp_path):
    # the child blocks on its full pipe until the end of the block reads it
    with forked(_mib, "probe", staged(tmp_path)):
        pass
    assert_no_child_processes()


def _raising() -> None:
    raise ValueError("no answer")


def test_a_raising_child_is_an_os_error_naming_it(tmp_path):
    with pytest.raises(OSError, match=r"^probe failed: ValueError: no answer$"):
        with forked(_raising, "probe", staged(tmp_path)) as result:
            result()
    assert_no_child_processes()
    # unread, it raises at the end of a clean block
    with pytest.raises(OSError, match=r"^probe failed: ValueError: no answer$"):
        with forked(_raising, "probe", staged(tmp_path)):
            pass
    assert_no_child_processes()


def test_a_raising_block_kills_the_child(tmp_path):
    started = time.monotonic()
    with pytest.raises(KeyError):
        with forked(lambda: time.sleep(60), "probe", staged(tmp_path)):
            raise KeyError("block")
    assert time.monotonic() - started < 30
    assert_no_child_processes()


def _stage_two_files(stage):
    """A child that writes ``kept/a.txt`` and ``dropped.txt`` into ``stage``."""
    def write() -> None:
        (stage / "kept").mkdir(parents=True)
        (stage / "kept" / "a.txt").write_text("kept\n")
        (stage / "dropped.txt").write_text("dropped\n")
    return write


def test_a_raising_block_discards_what_the_child_staged(tmp_path):
    stage = staged(tmp_path)
    with pytest.raises(KeyError):
        with forked(_stage_two_files(stage), "probe", stage) as result:
            result()
            assert (stage / "dropped.txt").exists()
            raise KeyError("block")
    assert list(tmp_path.iterdir()) == []
    assert_no_child_processes()


def test_a_clean_block_keeps_what_it_published_and_discards_the_rest(tmp_path):
    stage, out = staged(tmp_path), tmp_path / "out"
    with forked(_stage_two_files(stage), "probe", stage) as result:
        result()
        publish(stage / "kept", out)
        assert (stage / "dropped.txt").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert [(p.name, p.read_text()) for p in out.iterdir()] == [("a.txt", "kept\n")]
    assert_no_child_processes()
