"""One pass of a workload, in a fresh interpreter.

    python3 child.py SPEC_JSON

The spec names the set-up and timed argv lists, whether to trace, and where
to write the result.  Every step calls ``pilab.cli.main(argv)`` in this one
process, in order; its standard output is captured and, when the spec asks
for it, saved to a file.  The set-up ends when the interpreter has imported
pilab, installed the tracer (if any) and run the set-up steps; the timed
section is every timed step, back to back.

Time stamps are ``time.monotonic()``, which on Linux is CLOCK_MONOTONIC and
so comparable with the parent's stamps.  A speed probe times a fixed
calibration kernel from a SIGALRM handler in this same thread, every 10 ms
during the short set-up and every 50 ms after it, so the parent can tell how
fast the host ran while each step did.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
import traceback
from pathlib import Path

PROBE_SETUP_INTERVAL_S = 0.01
PROBE_INTERVAL_S = 0.05
_BIG_A, _BIG_B = 7**4300, 11**3600


def probe_kernel() -> int:
    """Fixed work mixing interpreted arithmetic and a ~12 kbit product,
    the two kinds of work pilab's layers spend their time on."""
    x = 0
    for k in range(2000):
        x += k * k
    return x + _BIG_A * _BIG_B


class SpeedProbe:
    """Samples (stamp, seconds) of ``probe_kernel`` on an interval timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        probe_kernel()
        self.samples.append((start, time.monotonic() - start))

    def start(self, interval: float) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _run_step(cli, step: dict) -> tuple[int, float, float]:
    buf = io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(step["argv"])
    except Exception:  # a crash is a failed step; the pass goes on
        traceback.print_exc()
        rc = -1
    end = time.monotonic()
    if step["stdout"]:
        Path(step["stdout"]).write_text(buf.getvalue(), encoding="utf-8")
    return rc, start, end


def main(spec_path: str) -> int:
    began = time.monotonic()
    probe = SpeedProbe()
    probe.start(PROBE_SETUP_INTERVAL_S)
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import numpy
    import pilab
    from pilab import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(pilab.__file__).resolve().parents:
        sys.stderr.write(f"pilab imported from {pilab.__file__}, expected under {src}\n")
        return 2
    recorder = None
    if spec["trace"]:
        import layertrace

        recorder = layertrace.install()
    codes = [_run_step(cli, step)[0] for step in spec["setup"]]
    ready = time.monotonic()
    probe.start(PROBE_INTERVAL_S)
    timed = [_run_step(cli, step) for step in spec["timed"]]
    probe.stop()
    result = {
        "began": began,
        "ready": ready,
        "setup_rc": codes,
        "timed_rc": [rc for rc, _, _ in timed],
        "timed_windows": [(start, end) for _, start, end in timed],
        "probe": probe.samples,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        recorder.dump(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
