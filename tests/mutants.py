"""Mutants of pilab's source that the tests must kill, and their runner.

Each row of MUTANTS gives a name, a file under src/pilab, the exact text the
mutant replaces, the text it puts in its place, and a pytest selection.  The
runner copies src/ to a temporary directory, checks that the old text occurs
exactly once (so a row whose text has moved fails loudly instead of
testing nothing), applies the row, and runs the selection with PYTHONPATH at
the copy.  The row is killed when the selection fails.

    python tests/mutants.py [NAME ...]

runs the named rows, or every row, from any directory, and exits 1 if any
survives.  A change that adds a fast path or a bound adds its mutants here:
a row that survives is a weak test, named with the test that should have
caught it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/pilab
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments, run from the repository root


MUTANTS = (
    # constants._split_jobs: the child must run the odd jobs, a frame must be
    # whole, a failed child's jobs must run here, and a reader that stops
    # early must not leave the child behind
    Mutant("split_even_and_odd_swapped", "constants.py",
           "_child(wfd, jobs[1::2])", "_child(wfd, jobs[0::2])",
           ("tests/test_split_jobs.py", "-k", "in_order")),
    Mutant("split_short_frame_accepted", "constants.py",
           "if len(head) + len(data) == 8 + count", "if len(head) == 8",
           ("tests/test_split_jobs.py", "-k", "short")),
    Mutant("split_fallback_dropped", "constants.py",
           "                    _kill_unreaped(pid)\n                    pid = None\n",
           "                    _kill_unreaped(pid)\n                    return\n",
           ("tests/test_split_jobs.py", "-k", "failed_child")),
    Mutant("split_early_close_kill_dropped", "constants.py",
           "        pipe.close()\n        if pid is not None:\n            _kill_unreaped(pid)\n",
           "        pipe.close()\n",
           ("tests/test_split_jobs.py", "-k", "early_close")),
    # the engines and the audit margins
    Mutant("ramanujan_1123_to_1124", "constants.py",
           "p * (1123 + 21460 * k)", "p * (1124 + 21460 * k)",
           ("tests/test_constant_engines.py", "-k", "ramanujan")),
    Mutant("ln_weights_entry_moved", "constants.py",
           "((72, 27, -19, 31),", "((72, 27, -19, 32),",
           ("tests/test_constant_engines.py", "-k", "ln10")),
    Mutant("margins_precision_cut_by_5_digits", "cf.py",
           ".bit_length() * 31 // 100 + 2)", ".bit_length() * 31 // 100 + 2 - 5)",
           ("tests/test_cf.py", "-k", "margins")),
    Mutant("newton_last_step_no_op", "constants.py",
           "u, v = _exp_ratio(y, p) if y >= 0 else _exp_ratio(-y, p)[::-1]",
           "u, v = (num, den) if q == widths[0] else _exp_ratio(y, p) if y >= 0 else _exp_ratio(-y, p)[::-1]",
           ("tests/test_constant_engines.py", "-k", "newton")),
)


def killed(mutant: Mutant, src: Path = ROOT / "src") -> bool:
    """Whether ``mutant``'s selection fails against a copy of ``src`` with
    the mutant applied.  A selection that pytest cannot run, or that selects
    nothing, raises RuntimeError; an old text that does not occur exactly
    once raises ValueError before anything runs."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "pilab" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times "
                             f"in src/pilab/{mutant.path}, not once")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        log = Path(tmp) / "pytest.log"
        with open(log, "w") as out:  # a file, not a pipe: a child a mutant leaves behind cannot hold up the run
            run = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                    *mutant.selection], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                   stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
            code = run.wait()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)  # a forked child that a mutant left running
        if code not in (0, 1):  # 0: every test passed; 1: a test failed
            raise RuntimeError(f"{mutant.name}: pytest exited {code}\n{log.read_text()}")
    return code == 1


def main(names: list[str]) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    if names and len(rows) != len(set(names)):
        raise SystemExit(f"unknown mutants: {sorted(set(names) - {m.name for m in rows})}")
    survivors = []
    for mutant in rows:
        ok = killed(mutant)
        print(f"{mutant.name}: {'killed' if ok else 'SURVIVED'}", flush=True)
        if not ok:
            survivors.append(mutant.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
