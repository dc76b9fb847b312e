"""Engine pairs with one half in a forked child: the same bits as one process,
a loud failure and a reaped child whatever the child or the parent does, and
the inline path wherever a fork is unsafe or does not pay."""

import errno
import os
import signal
import threading
import time

import pytest
from mpmath import mp, mpf

from pilab import cli, constants

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

W = constants._FORK_MIN_DIGITS + 1000


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """A fresh memo, a fork wherever the size clears _FORK_MIN_DIGITS (pi's own
    floor set aside), and the list of pids forked."""
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(constants, "_fork_pays", lambda w, floor=None: w >= constants._FORK_MIN_DIGITS)
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    yield pids
    assert_no_child_left()


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


def _fail_with_exception():
    raise ValueError("engine half failed")


@pytest.mark.parametrize("half,message", [
    (_fail_with_exception, "exited with status 1"),
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
    (lambda: os._exit(0), "sent 0 bytes, not 8"),
])
def test_failed_child_raises_naming_the_constant(forks, half, message):
    with pytest.raises(ArithmeticError, match=f"^ln_pi: the forked .* {message}$"):
        with constants._spawn("ln_pi", True, half) as join:
            join()
    assert len(forks) == 1


def test_parent_interrupt_kills_and_reaps_the_child(forks):
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with constants._spawn("pi", True, time.sleep, 60):
            raise KeyboardInterrupt
    assert len(forks) == 1 and time.monotonic() - start < 10


def test_interrupt_just_after_the_reap_neither_signals_nor_masks(monkeypatch, forks):
    waitpid = os.waitpid

    def reap_then_interrupt(pid, options):
        result = waitpid(pid, options)
        if options == 0:
            raise KeyboardInterrupt  # as if Ctrl-C landed before join() cleared pid
        return result

    def refuse_kill(pid, sig):
        raise AssertionError(f"signalled reaped pid {pid}")

    monkeypatch.setattr(os, "waitpid", reap_then_interrupt)
    monkeypatch.setattr(os, "kill", refuse_kill)
    with pytest.raises(KeyboardInterrupt):
        with constants._spawn("pi", True, int, 7) as join:
            join()
    assert len(forks) == 1


@pytest.mark.parametrize("name,half", [("ln10", "_ln10_acoth"), ("ln_pi", "_ln_rational_newton")], ids=["ln10", "ln_pi"])
@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_cli_exits_one_when_the_forked_half_fails(monkeypatch, capsys, forks, failure, name, half):
    def broken(*args):
        if failure == "raise":
            raise MemoryError
        os._exit(3)

    monkeypatch.setattr(constants, half, broken)
    assert cli.main(["constants", "--name", name, "--digits", str(constants._FORK_MIN_DIGITS)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}: the forked broken ")
    assert "Traceback" not in captured.err


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


def test_pairs_run_inline_when_fork_fails(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(constants, "_fork_pays", lambda w, floor=None: True)
    monkeypatch.setattr(os, "fork", _fail_fork)
    _assert_certified("pi", W)
    _assert_certified("ln10", W)
    assert_no_child_left()


def test_small_requests_and_one_cpu_run_inline(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(os, "fork", _refuse_fork)
    _assert_certified("ln_pi", 200)  # the working digits of coset's pi and most tests
    _assert_certified("pi", W)  # above the pairs' floor, below pi's own
    assert not constants._fork_pays(constants._FORK_MIN_DIGITS - 1, constants._FORK_MIN_DIGITS)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not constants._fork_pays(W, constants._FORK_MIN_DIGITS)


def test_each_pair_reads_its_floor_when_it_runs(monkeypatch):
    # a script that sets a module floor moves the pairs that use it: no pair
    # holds a floor bound when the module was imported
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(constants, "_FORK_MIN_DIGITS", 123)
    monkeypatch.setattr(constants, "_PI_FORK_MIN_DIGITS", 456)
    floors = []
    monkeypatch.setattr(constants, "_fork_pays", lambda w, floor: floors.append(floor) and False)
    for name in ("pi", "ln10", "ln_pi"):
        constants._ENGINES[name](60)
    assert floors == [456, 123, 456, 123]  # ln pi's pair certifies pi first
