"""Engine pairs with one half in a forked child: the same bits as one process
whatever the child does, a reaped child whatever the parent does, and the
inline path wherever a fork is unsafe or does not pay."""

import errno
import os
import threading
import time

import pytest
from mpmath import mp, mpf

from pilab import cli, constants

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

W = constants._FORK_MIN_DIGITS + 1000


@pytest.fixture
def forks(forks, monkeypatch):
    """A fresh memo, a fork wherever the size clears _FORK_MIN_DIGITS, and the
    list of pids forked."""
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(constants, "_fork_pays", lambda w, floor=None: w >= constants._FORK_MIN_DIGITS)
    return forks


def _serial(name, w):
    if name == "pi":
        one = 10**w
        return constants._pi_ramanujan(one, w), constants._pi_chudnovsky(one, w)
    if name == "ln10":
        return (constants._ln_rational_atanh(10, 1, w, constants._SMOOTH["ln10"]),
                constants._ln10_acoth(w))
    num, den = constants._certified_scaled("pi", w + 5), 10 ** (w + 5)
    return (constants._ln_rational_atanh(num, den, w, constants._SMOOTH["ln_pi"]),
            constants._ln_rational_newton(num, den, w))


@pytest.mark.parametrize("name", ["pi", "ln10", "ln_pi"])
def test_forked_pair_returns_the_serial_engines_bits(monkeypatch, forks, name):
    got = constants._ENGINES[name](W)
    assert forks
    monkeypatch.setattr(constants, "_memo", {})
    assert got == _serial(name, W)


def test_parent_interrupt_kills_and_reaps_the_child(forks):
    def interrupt():
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        constants._pair(W, interrupt, lambda: time.sleep(60))
    assert len(forks) == 1 and time.monotonic() - start < 10


def test_interrupt_just_after_the_reap_neither_signals_nor_masks(monkeypatch, forks):
    waitpid = os.waitpid

    def reap_then_interrupt(pid, options):
        result = waitpid(pid, options)
        if options == 0:
            raise KeyboardInterrupt  # as if Ctrl-C landed before the reaped pid was cleared
        return result

    def refuse_kill(pid, sig):
        raise AssertionError(f"signalled reaped pid {pid}")

    monkeypatch.setattr(os, "waitpid", reap_then_interrupt)
    monkeypatch.setattr(os, "kill", refuse_kill)
    with pytest.raises(KeyboardInterrupt):
        constants._pair(W, lambda: 1, lambda: 7)
    assert len(forks) == 1


@pytest.mark.parametrize("name,half", [("ln10", "_ln10_acoth"), ("ln_pi", "_ln_rational_newton")], ids=["ln10", "ln_pi"])
@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_cli_gives_the_inline_digits_when_the_forked_half_fails(monkeypatch, capsys, forks, failure, name, half):
    # the half fails in the child only, and runs again here
    argv = ["constants", "--name", name, "--digits", str(constants._FORK_MIN_DIGITS)]
    with monkeypatch.context() as inline:
        inline.setattr(constants, "_fork_pays", lambda w, floor=None: False)
        assert cli.main(argv) == 0
    want = capsys.readouterr()
    parent, engine = os.getpid(), getattr(constants, half)

    def broken(*args):
        if os.getpid() != parent:
            if failure == "raise":
                raise MemoryError
            os._exit(3)
        return engine(*args)

    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(constants, half, broken)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert len(forks) == (2 if name == "ln_pi" else 1)  # ln pi's pair certifies pi first


def _refuse_fork():
    raise AssertionError("forked")


def _fail_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def _assert_certified(name, n_digits):
    mp.dps = n_digits + 20
    value = {"pi": mp.pi, "ln10": mp.log(10), "ln_pi": mp.log(mp.pi)}[name]
    assert constants._certified_scaled(name, n_digits) == int(mp.floor(value * mpf(10) ** n_digits))


def test_pairs_run_inline_while_another_thread_is_alive(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(os, "fork", _refuse_fork)
    done = threading.Event()
    helper = threading.Thread(target=done.wait)
    helper.start()
    try:
        assert not constants._fork_pays(W, constants._FORK_MIN_DIGITS)
        _assert_certified("ln_pi", W)
    finally:
        done.set()
        helper.join(timeout=10)
    assert not helper.is_alive()


def test_pairs_run_inline_when_fork_fails(monkeypatch, forks):
    monkeypatch.setattr(constants, "_fork_pays", lambda w, floor=None: True)
    monkeypatch.setattr(os, "fork", _fail_fork)
    _assert_certified("pi", W)
    _assert_certified("ln10", W)


def test_small_requests_and_one_cpu_run_inline(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(os, "fork", _refuse_fork)
    _assert_certified("ln_pi", 200)  # the working digits of coset's pi and most tests
    _assert_certified("pi", constants._FORK_MIN_DIGITS - constants._GUARD_DIGITS - 1)  # just below the floor
    assert not constants._fork_pays(constants._FORK_MIN_DIGITS - 1, constants._FORK_MIN_DIGITS)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not constants._fork_pays(W, constants._FORK_MIN_DIGITS)


def test_each_pair_reads_its_floor_when_it_runs(monkeypatch):
    # every pair passes the one module floor, as it stands when the pair runs:
    # a script that sets it moves them all
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(constants, "_FORK_MIN_DIGITS", 123)
    floors = []
    monkeypatch.setattr(constants, "_fork_pays", lambda w, floor: floors.append(floor) and False)
    for name in ("pi", "ln10", "ln_pi"):
        constants._ENGINES[name](60)
    assert floors == [123] * 4  # ln pi's pair certifies pi first
