"""Regenerate ``reference.json``: the input variants and their output digests.

    python3 perfbench/record.py

Run from the root of a pilab checkout whose reports are known good.  Each
variant runs one untraced pass; its digit files and invariants must pass the
oracle checks before its digests are recorded, and variant 0 is run twice
to confirm the digests repeat.  A program change that alters report bytes on
purpose needs a new reference.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import EXPSUM_ORDER, EXPSUM_RANGE, WORKLOADS, make_variants

VARIANTS = 8


def expsum_primes() -> list[int]:
    """Primes in EXPSUM_RANGE whose order of 10 lies in EXPSUM_ORDER (sympy)."""
    from sympy import n_order, primerange

    lo, hi = EXPSUM_ORDER
    return [p for p in primerange(*EXPSUM_RANGE) if lo <= n_order(10, p) <= hi]


def record(workload: str, params: dict) -> dict[str, str]:
    (one,) = run.run_workload(workload, params, 0, False, None)
    if not all(one["ok"]):
        raise SystemExit(f"{workload} {params}: oracle checks failed; nothing recorded")
    return one["digests"]


def main() -> int:
    primes = expsum_primes()
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = []
        for params in make_variants(workload, VARIANTS, primes):
            digests = record(workload, params)
            print(workload, params, file=sys.stderr)
            reference[workload].append({"params": params, "digests": digests})
        if record(workload, reference[workload][0]["params"]) != reference[workload][0]["digests"]:
            raise SystemExit(f"{workload}: outputs differ between two runs of variant 0")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
