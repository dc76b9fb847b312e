"""Fixtures shared by the test files."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The list of pids forked during the test; after it, no child may be left
    unreaped.  A test file that forks under its own conditions overrides this
    fixture, taking it as an argument, and patches only those."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
