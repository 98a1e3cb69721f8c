"""``_fork.forked``: the child's return value comes back whole, an unread
child is still reaped, a raising child is an OSError that names it and
discards its own stage, a raising block kills the child and discards the
stage, and a clean block publishes the stage into its directory.
``_fork.discard`` removes links without following them."""

from __future__ import annotations

import os
import time

import pytest

from conftest import assert_no_child_processes
from mimdsim._fork import discard, forked, staged

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


def test_a_clean_block_publishes_the_stage_into_its_directory(tmp_path):
    # kept/ merges into the existing kept/, whose other files stay
    stage = staged(tmp_path)
    (tmp_path / "kept").mkdir()
    (tmp_path / "kept" / "b.txt").write_text("earlier\n")
    with forked(_stage_two_files(stage), "probe", stage) as result:
        result()
        assert not (tmp_path / "dropped.txt").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dropped.txt", "kept"]
    assert sorted((p.name, p.read_text()) for p in (tmp_path / "kept").iterdir()) == [
        ("a.txt", "kept\n"), ("b.txt", "earlier\n")]
    assert (tmp_path / "dropped.txt").read_text() == "dropped\n"
    assert_no_child_processes()


def test_a_clean_block_moves_a_staged_link_without_following_it(tmp_path):
    out, victim = tmp_path / "out", tmp_path / "victim"
    victim.mkdir()
    (victim / "precious.txt").write_text("keep\n")
    stage = staged(out)

    def link() -> None:
        stage.mkdir(parents=True)
        (stage / "to_victim").symlink_to(victim, target_is_directory=True)

    with forked(link, "probe", stage):
        pass
    assert [p.name for p in out.iterdir()] == ["to_victim"]
    assert (out / "to_victim").readlink() == victim
    assert [p.name for p in victim.iterdir()] == ["precious.txt"]
    assert_no_child_processes()


def test_a_raising_child_discards_its_stage_before_the_block_ends(tmp_path):
    stage = staged(tmp_path)
    write = _stage_two_files(stage)

    def write_then_raise() -> None:
        write()
        raise ValueError("half written")

    with pytest.raises(OSError, match=r"^probe failed: ValueError: half written$"):
        with forked(write_then_raise, "probe", stage) as result:
            with pytest.raises(OSError):
                result()
            assert not stage.exists()
    assert list(tmp_path.iterdir()) == []
    assert_no_child_processes()


def test_discard_removes_a_link_in_the_stage_without_following_it(tmp_path):
    stage, victim = staged(tmp_path / "out"), tmp_path / "victim"
    (victim / "inner").mkdir(parents=True)
    (victim / "precious.txt").write_text("keep\n")
    (stage / "sub").mkdir(parents=True)
    (stage / "sub" / "to_victim").symlink_to(victim, target_is_directory=True)
    (stage / "to_victim").symlink_to(victim, target_is_directory=True)
    discard(stage)
    assert not stage.exists()
    assert sorted(p.name for p in victim.iterdir()) == ["inner", "precious.txt"]
    assert (victim / "precious.txt").read_text() == "keep\n"
