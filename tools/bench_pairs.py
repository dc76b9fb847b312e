"""Paired benchmark runs of two commits, written as bench/BENCH_<short-sha>.json.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs N] [--seconds S]

Run from anywhere inside a pilab checkout.  Each commit's ``src`` is exported
with ``git archive`` into its own directory under a temporary one (under
``TMPDIR`` if set), beside ``perfbench/`` as committed at HEAD, so both sides
run the same harness.  Pair i runs

    python3 perfbench/run.py --workload all --seed i --seconds S --trace 0

once on each side, the parent first in even pairs and second in odd ones.  A
run's value of a metric is the harness's median over its passes; each file
holds, per workload, the median and quartiles over the runs and the runs in
pair order.  Nothing under perfbench/ is written; the exported trees are
removed at the end.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (metric, unit, kind) in the order the files list them
METRICS = (
    ("setup_s", "s", "scaled"),
    ("wall_s", "s", "scaled"),
    ("raw_setup_s", "s", "raw"),
    ("raw_wall_s", "s", "raw"),
    ("peak_rss_mb", "MB", "memory"),
)
NAMES = {metric for metric, _, _ in METRICS}
KINDS = {
    "scaled": "seconds scaled by the harness's calibration probe to its reference CPU speed "
              "(the wall_s and setup_s that BENCHMARK.json gates)",
    "raw": "unscaled seconds, printed by the harness as raw_wall_s and raw_setup_s",
    "memory": "peak_rss_mb reads os.wait4's ru_maxrss, which from a run's second pass on is the "
              "runner's high-water mark, not the child's own peak (ROADMAP item 8)",
}


def parse_run(text: str) -> dict:
    """The result of one ``run.py --workload all --trace 0`` from its standard
    output: correct, attempted and failed from its last line, the header of
    each workload, and each workload's values of METRICS from its metric
    lines (``<workload> <metric> <value> <unit>``)."""
    lines = text.strip().splitlines()
    last = json.loads(lines[-1])
    headers, values = {}, {}
    for line in lines[:-1]:
        if line.startswith("{"):
            header = json.loads(line)
            headers[header["workload"]] = header
            values[header["workload"]] = {}
            continue
        fields = line.split()
        if len(fields) == 4 and fields[0] in values and fields[1] in NAMES:
            values[fields[0]][fields[1]] = float(fields[2])
    for workload, got in values.items():
        missing = [m for m, _, _ in METRICS if m not in got]
        if missing:
            raise ValueError(f"{workload}: no value for {', '.join(missing)} in the harness output")
    return {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "headers": headers, "values": values}


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: unit, kind, median, q1, q3 (statistics.quantiles,
    n=4) and the runs in order, each rounded to 4 decimals."""
    out = {}
    for workload in runs[0]["values"]:
        out[workload] = {}
        for metric, unit, kind in METRICS:
            series = [run["values"][workload][metric] for run in runs]
            q1, _, q3 = statistics.quantiles(series, n=4)
            out[workload][metric] = {
                "unit": unit, "kind": kind,
                "median": round(statistics.median(series), 4), "q1": round(q1, 4), "q3": round(q3, 4),
                "runs": [round(v, 4) for v in series],
            }
    return out


def bench_file(sha: str, role: str, runs: list[dict], harness: str, method: str, measured: str) -> dict:
    header = next(iter(runs[0]["headers"].values()))
    host = (f"{header.get('nproc', '?')} usable CPUs, {platform.machine()}, "
            f"CPython {header.get('python', platform.python_version())}, numpy {header.get('numpy', '?')}")
    return {
        "commit": sha,
        "role": role,
        "measured": measured,
        "harness": harness,
        "host": host,
        "method": method,
        "kinds": KINDS,
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "workloads": summarize(runs),
    }


def _git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def _export(sha: str, path: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha, path))) as tar:
        tar.extractall(into, filter="data")


def dumps(record: dict) -> str:
    """record as indented JSON with each list of numbers on one line."""
    text = json.dumps(record, indent=2)
    return re.sub(r"\[[-0-9.e,\s]+\]", lambda m: json.dumps(json.loads(m.group(0))), text) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    shas = [_git("rev-parse", "--verify", f"{name}^{{commit}}").decode().strip()
            for name in (args.parent, args.change)]
    head = _git("rev-parse", "--short", "HEAD").decode().strip()
    runs: dict[str, list[dict]] = {sha: [] for sha in shas}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {}
        for sha in shas:
            trees[sha] = Path(tmp) / sha[:7]
            _export(sha, "src", trees[sha])
            _export("HEAD", "perfbench", trees[sha])
        for i in range(args.pairs):
            for sha in (shas if i % 2 == 0 else shas[::-1]):
                done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(i),
                                       "--seconds", str(args.seconds), "--trace", "0"],
                                      cwd=trees[sha], check=True, capture_output=True, text=True)
                run = parse_run(done.stdout)
                runs[sha].append(run)
                print(f"pair {i} {sha[:7]}: correct {run['correct']}, "
                      + ", ".join(f"{w} wall_s {v['wall_s']:.4f}" for w, v in run["values"].items()),
                      file=sys.stderr, flush=True)
    parent, change = shas
    method = (f"{args.pairs} pairs of `python3 perfbench/run.py --workload all --seed S --seconds "
              f"{args.seconds:g} --trace 0`, S = pair index 0-{args.pairs - 1}, each side run in its own "
              "tree (`git archive` of its src beside HEAD's perfbench/); the parent ran first in even pairs "
              "and second in odd ones. Each run's value is the harness's median over its passes; the median "
              "and quartiles (statistics.quantiles, n=4) are over the runs, listed in pair order.")
    harness = f"perfbench/ as committed at {head}, the same tree on both sides"
    measured = datetime.date.today().isoformat()
    out = ROOT / "bench"
    out.mkdir(exist_ok=True)
    for sha, role in ((parent, f"parent of {change[:7]}"), (change, f"change on {parent[:7]}")):
        path = out / f"BENCH_{sha[:7]}.json"
        path.write_text(dumps(bench_file(sha, role, runs[sha], harness, method, measured)))
        print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
