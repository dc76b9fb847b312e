"""constants._split_jobs, the one way work is handed to a forked child: every
job's value in order, the values or the error of one process whatever the
child does, and no child left behind whatever the reader does."""

import errno
import functools
import os
import signal
import time

import pytest

from pilab import constants

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _text(i: int) -> str:
    # job 9's text is 180 000 bytes, past a pipe's buffer: its frame takes
    # more than one write and more than one read
    return f"{i}:" + str(i) * (20_000 * i)


def _jobs(count: int, parent: int, ran_here: list, fail=None, at=None):
    """Jobs giving _text(i); each logs i to ``ran_here`` when run in
    ``parent``, and job ``at`` runs ``fail`` first in any other process."""

    def job(i):
        if os.getpid() == parent:
            ran_here.append(i)
        elif i == at:
            fail()
        return _text(i)

    return [functools.partial(job, i) for i in range(count)]


@pytest.mark.parametrize("count", range(10))
def test_values_come_in_order_odd_jobs_from_the_child(forks, count):
    ran_here = []
    jobs = _jobs(count, os.getpid(), ran_here)
    assert list(constants._split_jobs(True, jobs)) == [_text(i) for i in range(count)]
    assert ran_here == list(range(0, count, 2)) and len(forks) == 1
    ran_here.clear()
    assert list(constants._split_jobs(False, jobs)) == [_text(i) for i in range(count)]
    assert ran_here == list(range(count)) and len(forks) == 1


def _raise():
    raise ValueError("job failed")


def _short_frame(monkeypatch):
    """A failure that sends the child's next frame one byte short, then exits:
    the writes are gathered until they hold a whole frame."""
    write, frame = os.write, bytearray()

    def cut(fd, data):
        frame.extend(data)
        if len(frame) >= 8 and len(frame) == 8 + int.from_bytes(frame[:8], "little"):
            write(fd, bytes(frame[:-1]))
            os._exit(0)
        return len(data)

    return lambda: monkeypatch.setattr(os, "write", cut)


FAILURES = {
    "raise": lambda monkeypatch: _raise,
    "exit": lambda monkeypatch: lambda: os._exit(3),
    "killed": lambda monkeypatch: lambda: os.kill(os.getpid(), signal.SIGKILL),
    "short": _short_frame,
}


@pytest.mark.parametrize("at", [1, 3, 5], ids=["after-0", "after-1", "after-2"])
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failed_child_gives_the_inline_values(monkeypatch, forks, failure, at):
    # the child sends (at - 1) / 2 texts, then fails at job ``at``: that job
    # and every later odd job run here
    ran_here = []
    jobs = _jobs(7, os.getpid(), ran_here, FAILURES[failure](monkeypatch), at)
    assert list(constants._split_jobs(True, jobs)) == [_text(i) for i in range(7)]
    assert ran_here == [i for i in range(7) if i % 2 == 0 or i >= at]
    assert len(forks) == 1


@pytest.mark.parametrize("where", ["here", "child"])
def test_failing_job_gives_the_inline_error(forks, where):
    # job 3 raises wherever it runs: as an odd job in the child, which then
    # sends no more, and again here; as an even job here at once
    def job(i):
        if i == 3:
            raise ValueError("job 3 refused")
        return _text(i)

    jobs = [functools.partial(job, i) for i in range(6)]
    if where == "here":
        jobs = [lambda: "first", *jobs]  # job 3 moves to index 4, an even job
    got = []
    with pytest.raises(ValueError, match="^job 3 refused$"):
        got.extend(constants._split_jobs(True, jobs))
    want = [_text(i) for i in range(3)]
    assert got == (["first", *want] if where == "here" else want)
    assert len(forks) == 1


def test_early_close_kills_and_reaps_the_child(forks):
    parent = os.getpid()

    def job(i):
        if os.getpid() != parent:
            time.sleep(60)  # the child is alive when the reader stops
        return _text(i)

    start = time.monotonic()
    texts = constants._split_jobs(True, [functools.partial(job, i) for i in range(4)])
    assert next(texts) == _text(0)
    texts.close()
    assert len(forks) == 1 and time.monotonic() - start < 10


def test_fork_failure_runs_every_job_here(monkeypatch, forks):
    def fail_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fail_fork)
    ran_here = []
    before = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    jobs = _jobs(5, os.getpid(), ran_here)
    assert list(constants._split_jobs(True, jobs)) == [_text(i) for i in range(5)]
    assert ran_here == list(range(5))
    if before is not None:
        assert sorted(os.listdir("/proc/self/fd")) == before  # both ends of the pipe closed
