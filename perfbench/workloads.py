"""The three workloads: which ``pilab`` subcommands each pass runs.

A workload's inputs come from a variant in ``reference.json``; the seed picks
the variant, and every variant has the same size class (digit counts and
limits within 1% of the defaults, an expsum prime in [4.0e6, 4.2e6] whose
order of 10 lies in [30000, 65536]).  Variant 0 holds the default sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = ("certify", "scan", "stats")

DEFAULTS = {
    "certify": {"pi": 30000, "ln10": 10000, "ln_pi": 10000, "nmax": 1500},
    "scan": {"limit": 1_000_000, "coset_k": 14, "p": 4_004_023},
    "stats": {"N": 1_000_000, "const_N": 20000},
}
EXPSUM_RANGE = (4_000_000, 4_200_000)
EXPSUM_ORDER = (30000, 65536)  # 65536 is the default element cap of `expsum`


@dataclass(frozen=True)
class Step:
    """One ``pilab`` subcommand and the files it leaves in the pass directory.

    A step with ``stdout`` set has its standard output saved to that file,
    which is then one of its ``outputs``.
    """

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    stdout: str | None = None

    @property
    def command(self) -> str:
        """The subcommand, which names the time the step is charged to."""
        return self.argv[0]


def _step(argv: list, outputs: tuple[str, ...] = (), stdout: str | None = None) -> Step:
    return Step(tuple(str(a) for a in argv), outputs + ((stdout,) if stdout else ()), stdout)


def steps(workload: str, params: dict) -> tuple[list[Step], list[Step]]:
    """(set-up steps, timed steps) of one pass."""
    p = params
    if workload == "certify":
        timed = [
            _step(["constants", "--name", name, "--digits", p[name], "--out", f"{name}.digits"],
                  (f"{name}.digits",))
            for name in ("pi", "ln10", "ln_pi")
        ]
        timed.append(_step(["audit", "--lemma", "caseII", "--k", 12, "--nmax", p["nmax"],
                            "--out", "audit.json"], ("audit.json",)))
        return [], timed
    if workload == "scan":
        return [], [
            _step(["artin", "--limit", p["limit"], "--csv", "artin.csv", "--out", "artin.json"],
                  ("artin.csv", "artin.json")),
            _step(["coset", "--k", p["coset_k"]], stdout="coset.json"),
            _step(["expsum", "--p", p["p"]], stdout="expsum.json"),
        ]
    if workload == "stats":
        n, digits = p["N"], p["N"] + 64  # report --in needs N + 24 shift digits
        warm = _step(["constants", "--name", "pi", "--digits", p["const_N"] + 30],
                     stdout="warm.txt")
        return [warm], [
            _step(["construct", "--family", "integers", "--digits", digits, "--out", "int.digits"],
                  ("int.digits",)),
            _step(["report", "--in", "int.digits", "--N", n, "--kmax", 4, "--mmax", 5,
                   "--out", "report.json"], ("report.json",)),
            _step(["normality", "--in", "int.digits", "--N", n, "--kmax", 5,
                   "--out", "normality.json"], ("normality.json",)),
            _step(["report", "--const", "pi", "--N", p["const_N"], "--out", "report_pi.json"],
                  ("report_pi.json",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def make_variants(workload: str, count: int, expsum_primes: list[int]) -> list[dict]:
    """Variant 0 is the default; the rest move each size by at most 1%."""
    out = [dict(DEFAULTS[workload])]
    for i in range(1, count):
        rng = random.Random(f"{workload}-{i}")
        params = {
            key: round(value * (1 + rng.uniform(-0.01, 0.01)))
            for key, value in DEFAULTS[workload].items()
        }
        if workload == "scan":
            params["coset_k"] = DEFAULTS["scan"]["coset_k"]  # q_k sizes jump by orders
            params["p"] = rng.choice(expsum_primes)
        out.append(params)
    return out
