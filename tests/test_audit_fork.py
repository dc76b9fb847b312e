"""Audit rows made in two processes: the bytes of one process for every
lemma, the one-process exit code and message when a row or the child fails,
and no child left behind whatever the parent does."""

import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_spectra import needs_vmhwm

import verdicts
from pilab import cf, cli, constants

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

CASES = {
    "caseII-mu2": ("caseII", "12", "1500", "2"),
    "caseII-mu2.5": ("caseII", "12", "1500", "2.5"),
    "prime": ("prime", "12", "1500", "2"),
    "caseI-k30": ("caseI", "30", "1500", "2"),
}


@pytest.fixture
def forks(forks, monkeypatch):
    """Audit rows split with a forked child at any row count; the list of pids forked."""
    monkeypatch.setattr(constants, "_second_cpu", lambda: True)
    monkeypatch.setattr(cli, "_FORK_MIN_ROWS", 2)
    return forks


def _argv(case, out=None):
    lemma, k, nmax, mu = CASES[case]
    argv = ["audit", "--lemma", lemma, "--k", k, "--nmax", nmax, "--mu", mu]
    return argv + ["--out", str(out)] if out else argv


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def inline(tmp_path_factory):
    """Each case's report, made in one process."""
    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constants, "_second_cpu", lambda: False)
        for case in CASES:
            path = tmp_path_factory.mktemp("inline") / "audit.json"
            assert cli.main(_argv(case, path)) == 0
            reports[case] = path.read_text()
    return reports


@pytest.mark.parametrize("case", sorted(CASES))
def test_forked_rows_give_the_inline_bytes(monkeypatch, capsys, tmp_path, forks, inline, case):
    split_jobs, blocks, made_here = constants._split_jobs, [], []

    def spy(fork, jobs):
        def logged(i, job):
            made_here.append(i)  # in this process: the child's appends stay in the child
            return job()

        blocks.append(len(jobs))
        return split_jobs(fork, [functools.partial(logged, i, job) for i, job in enumerate(jobs)])

    monkeypatch.setattr(constants, "_split_jobs", spy)
    code, out, err = _run(capsys, _argv(case))
    assert blocks[0] > 1 and made_here == list(range(0, blocks[0], 2))  # every second block came from the child
    assert (code, err) == (0, "")
    assert out == inline[case]
    path = tmp_path / "audit.json"
    assert _run(capsys, _argv(case, path))[0] == 0
    assert path.read_text() == inline[case]
    assert len(forks) == 2
    report = json.loads(out)
    nmax = int(CASES[case][2])
    if case.startswith("caseII"):
        verdicts.check_caseII_audit(report, nmax)
    elif case == "prime":
        verdicts.check_prime_audit(report, nmax)
    else:
        verdicts.check_caseI_audit(report, nmax)


def test_rows_run_inline_below_the_threshold_and_on_one_cpu(monkeypatch, capsys, forks, inline):
    def refuse_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse_fork)
    monkeypatch.setattr(constants, "_second_cpu", lambda: True)
    monkeypatch.setattr(cli, "_FORK_MIN_ROWS", 1495)  # one more than caseII's rows
    assert _run(capsys, _argv("caseII-mu2")) == (0, inline["caseII-mu2"], "")
    monkeypatch.setattr(cli, "_FORK_MIN_ROWS", 2)
    monkeypatch.setattr(constants, "_second_cpu", lambda: False)
    assert _run(capsys, _argv("caseII-mu2")) == (0, inline["caseII-mu2"], "")


def test_child_certifies_no_pi(monkeypatch, capsys, forks, inline, tmp_path):
    # the audit certifies every digit its rows read when it is built, before
    # any fork: from an empty memo, only this process runs the pi engines
    log = tmp_path / "pids"
    engine = constants._ENGINES["pi"]

    def logged(w):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return engine(w)

    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setitem(constants._ENGINES, "pi", logged)
    assert _run(capsys, _argv("caseII-mu2")) == (0, inline["caseII-mu2"], "")
    assert set(log.read_text().split()) == {str(os.getpid())}
    assert len(forks) == 1


def _in_child(parent, action):
    """A _row_value that runs ``action`` first in any process but ``parent``."""
    row_value = cf._row_value

    def patched(lower, upper, n, q):
        if os.getpid() != parent:
            action(n)
        return row_value(lower, upper, n, q)

    return patched


def _raise(n):
    raise ValueError(f"row {n} refused")


@pytest.mark.parametrize("action", [_raise, lambda n: os._exit(3), lambda n: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["raise", "exit", "killed"])
def test_failed_child_gives_the_inline_report(monkeypatch, capsys, forks, inline, action):
    monkeypatch.setattr(cf, "_row_value", _in_child(os.getpid(), action))
    assert _run(capsys, _argv("caseII-mu2")) == (0, inline["caseII-mu2"], "")
    assert len(forks) == 1


def test_failing_row_gives_the_inline_exit_code_and_message(monkeypatch, capsys, forks, tmp_path):
    # caseII at k = 12 audits n = 8..1500 in 24 blocks of 63 rows: row 1200
    # is in block 18 (n = 1142..1204), made here, and row 1210 in block 19,
    # made by the child and again here; the partial report ends at the last
    # whole block before the failing row
    row_value = cf._row_value
    path = tmp_path / "audit.json"
    for failing, last in ((1200, 1141), (1210, 1204)):
        def refuse_row(lower, upper, n, q):
            if n == failing:
                _raise(n)
            return row_value(lower, upper, n, q)

        monkeypatch.setattr(cf, "_row_value", refuse_row)
        path.write_text("old report\n")
        runs = []
        for second_cpu in (True, False):
            monkeypatch.setattr(constants, "_second_cpu", lambda on=second_cpu: on)
            runs.append(_run(capsys, _argv("caseII-mu2")) + _run(capsys, _argv("caseII-mu2", path)))
        forked, one_process = runs
        assert forked == one_process
        code, out, err, out_code, _, out_err = forked
        assert (code, err) == (out_code, out_err) == (1, f"error: row {failing} refused\n")
        assert f'"n": {last},' in out and f'"n": {last + 1},' not in out
        assert path.read_text() == "old report\n"
    assert len(forks) == 4


def test_parent_interrupt_kills_and_reaps_the_child(monkeypatch, forks, tmp_path):
    parent = os.getpid()
    row_value = cf._row_value

    def interrupt_parent(lower, upper, n, q):
        if os.getpid() != parent:
            time.sleep(60)  # the child is alive when the parent stops
        elif n == 30:  # in the first block, which this process makes before any wait
            raise KeyboardInterrupt
        return row_value(lower, upper, n, q)

    monkeypatch.setattr(cf, "_row_value", interrupt_parent)
    path = tmp_path / "audit.json"
    path.write_text("old report\n")
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(_argv("caseII-mu2", path))
    assert len(forks) == 1 and time.monotonic() - start < 10
    assert path.read_text() == "old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.json"]


@needs_vmhwm
def test_forked_audit_peaks_at_one_block(tmp_path):
    # at AUDIT_NMAX_MAX each process holds one block's text, not the rows
    # or half the report; the child starts from the parent's resident pages
    path = tmp_path / "audit.json"
    argv = ["audit", "--lemma", "caseII", "--k", "12", "--out", str(path), "--nmax"]
    code = (
        "import re, resource\n"
        "from pilab import cf, cli, constants\n"
        "constants._second_cpu = lambda: True\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1)) * 1024\n"
        f"cli.main({argv + ['40']!r})\n"
        "before = hwm()\n"
        f"assert cli.main({argv + [str(cf.AUDIT_NMAX_MAX)]!r}) == 0\n"
        "print(before, hwm(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cf.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    before, after, child = map(int, result.stdout.split())
    size = path.stat().st_size
    assert size > 60_000_000
    # measured: the parent rose ~6 MB and the child peaked at ~31 MB, below
    # the parent's 36 MB mark; with one block each, two halves of the rows,
    # the parent rose ~155 MB and the child peaked at ~183 MB
    assert after - before < size / 8
    assert 0 < child < before + size / 8
