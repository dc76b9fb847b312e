"""Output checks for one pass: a step fails if it exited non-zero, left an
output missing, or gave output that an oracle or a reference digest rejects.

Digit files are rebuilt byte for byte from independent oracles (``mpmath``
for the constants, plain string concatenation for the integers family), so
one wrong digit fails the step.  Reports, the Artin CSV and captured standard
output must match the SHA-256 digests recorded in ``reference.json`` for the
pass's variant.  Manifests carry timestamps and are not checked.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.set_int_max_str_digits(0)  # the oracles print integers of 10^5 digits

_LINE = 80
_INT_PARTS = {"pi": 3, "ln10": 2, "ln_pi": 1}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def constant_digits(name: str, n: int) -> str:
    """The first ``n`` fractional digits of a constant, truncated, from mpmath."""
    import mpmath

    with mpmath.workdps(n + 40):
        value = {"pi": mpmath.pi, "ln10": mpmath.log(10), "ln_pi": mpmath.log(mpmath.pi)}[name]
        scaled = int(mpmath.floor(+value * mpmath.mpf(10) ** n))
    return str(scaled - _INT_PARTS[name] * 10**n).rjust(n, "0")


@functools.lru_cache(maxsize=None)
def integer_concat_digits(n: int) -> str:
    parts, total, k = [], 0, 1
    while total < n:
        s = str(k)
        parts.append(s)
        total += len(s)
        k += 1
    return "".join(parts)[:n]


def digit_file_bytes(digits: str, label: str) -> bytes:
    lines = [f"base=10 count={len(digits)} label={label}"]
    lines += [digits[i : i + _LINE] for i in range(0, len(digits), _LINE)]
    return ("\n".join(lines) + "\n").encode("ascii")


@functools.lru_cache(maxsize=None)
def prime_count(limit: int) -> int:
    """Primes q <= limit other than 2 and 5, by an independent numpy sieve."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return int(sieve.sum()) - 2


def _oracle_ok(step, passdir: Path) -> bool:
    """Invariants that hold for every variant, independent of the digests."""
    argv = step.argv
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if step.command == "constants":
        name, n = opt["--name"], int(opt["--digits"])
        want = constant_digits(name, n)
        if "--out" in opt:
            return (passdir / opt["--out"]).read_bytes() == digit_file_bytes(want, name)
        return (passdir / step.stdout).read_text() == f"{_INT_PARTS[name]}.{want}\n"
    if step.command == "construct":
        n = int(opt["--digits"])
        return (passdir / opt["--out"]).read_bytes() == digit_file_bytes(
            integer_concat_digits(n), "concat-integers-b10"
        )
    if step.command == "artin":
        scan = json.loads((passdir / opt["--out"]).read_text())
        rows = (passdir / opt["--csv"]).read_text().splitlines()[1:]
        artin = sum(1 for row in rows if row.endswith(",true"))
        return (
            scan["count_primes"] == prime_count(int(opt["--limit"]))
            and len(rows) == scan["count_primes"]
            and artin == scan["count_artin"]
        )
    if step.command == "coset":
        report = json.loads((passdir / step.stdout).read_text())
        return report["h_equals_subgroup"] is True and report["g_equals_coset"] is True
    return True


def check_step(step, rc: int | None, passdir: Path, digests: dict[str, str] | None) -> bool:
    """Whether one step succeeded; ``digests`` None skips the digest check."""
    if rc != 0 or not all((passdir / f).is_file() for f in step.outputs):
        return False
    if digests is not None and any(sha256(passdir / f) != digests.get(f) for f in step.outputs):
        return False
    try:
        return _oracle_ok(step, passdir)
    except (OSError, ValueError, KeyError, TypeError):
        return False
