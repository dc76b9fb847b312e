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
    # ln pi's bit-burst stages on shifts, the primary's refusal of a rest
    # outside [1, 1 + 2^-16), and the Newton check's cubic finish and its exp
    # stages' T cut before the multiply
    Mutant("log1p_stage_sign_dropped", "constants.py",
           "return -a, 1, k + 1, a", "return a, 1, k + 1, a",
           ("tests/test_constant_engines.py", "-k", "log1p")),
    Mutant("log1p_stage_one_term_fewer", "constants.py",
           "terms = max(1, bits // (s - a.bit_length()))", "terms = max(1, bits // (s - a.bit_length()) - 1)",
           ("tests/test_constant_engines.py", "-k", "log1p")),
    Mutant("bit_burst_rest_guard_dropped", "constants.py",
           "if not 0 <= (num - den) << 16 < den:", "if False:",
           ("tests/test_constant_engines.py", "-k", "refuses_a_rest")),
    Mutant("newton_finish_cube_dropped", "constants.py",
           "r -= (r2 >> 1) - (r2 * r >> p) // 3", "r -= r2 >> 1",
           ("tests/test_constant_engines.py", "-k", "newton")),
    Mutant("newton_finish_square_dropped", "constants.py",
           "r -= (r2 >> 1) - (r2 * r >> p) // 3", "r += (r2 * r >> p) // 3",
           ("tests/test_constant_engines.py", "-k", "newton")),
    Mutant("exp_stage_t_cut_to_half_width", "constants.py",
           "s.bit_length() - p - 96))", "s.bit_length() - p // 2))",
           ("tests/test_constant_engines.py", "-k", "newton")),
    # groups, primes and spectra: the active-lane filter must keep a rest of
    # ell^2, 41 must stay a witness (psi_12 passes bases 2..37), and a window
    # value whose 69-bit truncation is a tie must round up on a nonzero rest,
    # found by the FastTwoSum residual
    Mutant("active_lane_filter_strict", "groups.py",
           "active = active[rem[active] >= ell * ell]", "active = active[rem[active] > ell * ell]",
           ("tests/test_groups.py", "-k", "orders_of_ten")),
    Mutant("mr_witness_41_dropped", "primes.py",
           "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
           "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
           ("tests/test_groups.py", "-k", "pseudoprime")),
    Mutant("window_tie_correction_dropped", "spectra.py",
           "    np.copyto(val, up, where=tie)\n", "",
           ("tests/test_spectra.py", "-k", "shifted_points")),
    Mutant("window_fast_two_sum_residual_dropped", "spectra.py",
           "resid = np.subtract(tail, gap, out=tail)", "resid = tail",
           ("tests/test_spectra.py", "-k", "shifted_points")),
    # _int: Burnikel-Ziegler's add-back after an overshooting quotient digit,
    # the digit that saturates at 2^n - 1, the odd-width pad that keeps each
    # digit within two corrections, and isqrt's last step down
    Mutant("bz_add_back_dropped", "_int.py",
           "    while r < 0:\n        q -= 1\n        r += b\n", "",
           ("tests/test_int.py", "-k", "floor_divmod")),
    Mutant("bz_saturated_digit_raises", "_int.py",
           "        q, r = (1 << n) - 1, a12 - (b1 << n) + b1\n",
           "        raise AssertionError(\"saturated quotient digit\")\n",
           ("tests/test_int.py", "-k", "saturated")),
    Mutant("bz_odd_pad_narrowed", "_int.py",
           "a, b, n = a << 1, b << 1, n + 1", "a, b, n = a << 1, b << 1, n - 1",
           ("tests/test_int.py", "-k", "at_most_twice")),
    Mutant("isqrt_last_step_dropped", "_int.py",
           "return a - (a * a > n)", "return a",
           ("tests/test_int.py", "-k", "isqrt")),
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
