"""Benchmark of the pilab command line over three workloads.

    python3 perfbench/run.py --workload certify|scan|stats|all \
        --seed N --seconds S --trace 0|1

Run from the root of a pilab checkout; the program is imported from its
``src``.  Each pass starts a fresh interpreter (``child.py``) that runs the
workload's subcommands through ``pilab.cli.main`` one after another.  Passes
repeat until ``--seconds`` have gone by, and each metric is the median over
passes.  Outputs are checked after every pass, outside the timed section.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` passes alternate untraced and
traced, and it holds the per-layer metrics and the tracing overhead.
``--workload all`` prints every metric of every workload with its unit,
including the time per subcommand and the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS, steps  # noqa: E402

RUN_LIMIT_S = 150.0  # no pass may end later than this after the run began
# Roughly the seconds the child's probe kernel takes on an idle core of a
# 2-core Xeon virtual machine; times are scaled to that speed.  Only its
# staying fixed matters: changing it rescales every time.
PROBE_REF_S = 250e-6
MIN_PROBES = 3
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
RAW = ("raw_wall_s", "raw_setup_s", "probe_speed")
COMMANDS = ("constants", "audit", "artin", "coset", "expsum", "construct", "report", "normality")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    if name in ("fail_ratio", "probe_speed"):
        return "ratio"
    return "count"


def _child_env(workdir: Path, cache: Path | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PI_LAB_CACHE"}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", TMPDIR=str(workdir))
    if cache is not None:
        env["PI_LAB_CACHE"] = str(cache)
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its resource usage; kill it past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        time.sleep(0.005)


def _speed(samples: list, lo: float, hi: float) -> float | None:
    """Mean reference-to-measured ratio of the probe samples taken in [lo, hi)."""
    ratios = [PROBE_REF_S / seconds for at, seconds in samples if lo <= at < hi]
    return statistics.fmean(ratios) if len(ratios) >= MIN_PROBES else None


def _times(res: dict, spawned: float, timed: list) -> dict:
    """Raw times of a pass and the same times at the probe's reference speed.

    Each interval is scaled by the probe samples taken inside it, or by all
    of the pass's samples when it holds fewer than MIN_PROBES of them.
    """
    samples = res["probe"]
    overall = _speed(samples, float("-inf"), float("inf")) or 1.0
    windows = res["timed_windows"]
    first, last = windows[0][0], windows[-1][1]
    out = {
        "raw_wall_s": last - first,
        "raw_setup_s": res["ready"] - spawned,
        "probe_speed": overall,
        "wall_s": (last - first) * (_speed(samples, first, last) or overall),
        "setup_s": (res["ready"] - spawned) * (_speed(samples, res["began"], res["ready"]) or overall),
        "steps": [],
        "commands": {},
    }
    for step, (start, end) in zip(timed, windows):
        seconds = (end - start) * (_speed(samples, start, end) or overall)
        out["steps"].append((" ".join(step.argv), seconds, end - start))
        out["commands"][step.command] = out["commands"].get(step.command, 0.0) + seconds
    return out


def run_pass(workload: str, params: dict, passdir: Path, traced: bool, deadline: float,
             digests: dict[str, str] | None) -> dict:
    """One fresh-interpreter pass, checked; its directory is removed after."""
    setup, timed = steps(workload, params)
    passdir.mkdir(parents=True)
    spec = {
        "src": str(ROOT / "src"),
        "trace": traced,
        "setup": [{"argv": list(s.argv), "stdout": s.stdout} for s in setup],
        "timed": [{"argv": list(s.argv), "stdout": s.stdout} for s in timed],
        "result": str(passdir / "result.json"),
        "spans": str(passdir / "spans.json"),
    }
    (passdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    cache = passdir / "cache" if workload == "stats" else None
    log_path = passdir / "child.log"
    try:
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(passdir / "spec.json")],
                cwd=passdir, env=_child_env(passdir, cache), stdout=log, stderr=subprocess.STDOUT,
            )
            usage = _wait(proc, deadline)
        result_path = passdir / "result.json"
        res = None
        if proc.returncode == 0 and result_path.is_file():
            res = json.loads(result_path.read_text(encoding="utf-8"))
        all_steps = setup + timed
        rcs = res["setup_rc"] + res["timed_rc"] if res else [None] * len(all_steps)
        ok = [checks.check_step(s, rc, passdir, digests) for s, rc in zip(all_steps, rcs)]
        if not all(ok):
            sys.stderr.write(f"{workload}: failed steps "
                             f"{[s.argv for s, good in zip(all_steps, ok) if not good]}\n")
            sys.stderr.write(log_path.read_text(errors="replace")[-2000:])
        out = {"ok": ok, "traced": traced, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if res:
            out.update(_times(res, spawned, timed))
            out["versions"] = {"python": res["python"], "numpy": res["numpy"]}
            out["output_bytes"] = sum(
                (passdir / f).stat().st_size for s in all_steps for f in s.outputs
                if (passdir / f).is_file()
            )
            out["digests"] = {
                f: checks.sha256(passdir / f) for s in all_steps for f in s.outputs
                if (passdir / f).is_file()
            }
            if traced:
                spans = json.loads((passdir / "spans.json").read_text(encoding="utf-8"))
                # span times scale like the pass's other times: by the probe
                # speed over the whole pass, set-up included
                speed = out["probe_speed"]
                out["layers"] = {
                    name: value * speed if unit(name) == "s" else
                    value / speed if unit(name) == "1/s" else value
                    for name, value in layertrace.layer_metrics(spans).items()
                }
                out["top_spans"] = [(name, busy * speed)
                                    for name, busy in layertrace.top_spans(spans, 8)]
        return out
    finally:
        shutil.rmtree(passdir, ignore_errors=True)


def run_workload(workload: str, params: dict, seconds: float, trace: bool,
                 digests: dict[str, str] | None) -> list[dict]:
    """Passes until ``seconds`` have gone by (alternating traced and untraced
    when tracing); every output is removed afterwards."""
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    start = time.monotonic()
    need = 2 if trace else 1
    passes: list[dict] = []
    try:
        while True:
            began = time.monotonic()
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(workload, params, workdir / f"pass{len(passes)}",
                                   traced, start + RUN_LIMIT_S, digests))
            now = time.monotonic()
            whole = len(passes) % need == 0  # a traced run ends on a traced pass
            out_of_time = now + (now - began) > start + RUN_LIMIT_S
            if whole and (now - start >= seconds or out_of_time):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    return passes


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def summarize(passes: list[dict], trace: bool) -> dict:
    """The JSON result of one workload: correct, attempted, failed, metrics."""
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["ok"])
    timed = [p for p in passes if "wall_s" in p]
    traced = [p for p in timed if p["traced"]]
    plain = [p for p in timed if not p["traced"]]
    metrics = {}
    if trace and traced and plain:
        for name in traced[0]["layers"]:
            # counts repeat exactly; median_low keeps them whole numbers
            median = statistics.median if unit(name) in ("s", "1/s") else statistics.median_low
            metrics[name] = median(p["layers"][name] for p in traced)
        metrics["cli.output_bytes"] = statistics.median_low(p["output_bytes"] for p in traced)
        metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    elif not trace and plain:
        for name in END_TO_END:
            metrics[name] = _median(plain, name)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def detail_metrics(passes: list[dict]) -> dict[str, float]:
    """Medians of the raw times and of the seconds per subcommand (summed
    over its calls in a pass), and the failure ratio."""
    timed = [p for p in passes if "commands" in p and not p["traced"]]
    out = {name: _median(timed, name) for name in RAW} if timed else {}
    for command in COMMANDS:
        if timed and command in timed[0]["commands"]:
            out[f"{command}_s"] = statistics.median(p["commands"][command] for p in timed)
    attempted = sum(len(p["ok"]) for p in passes)
    out["fail_ratio"] = sum(not ok for p in passes for ok in p["ok"]) / attempted
    return out


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit}


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pilab" / "cli.py").is_file():
        sys.stderr.write(f"no pilab sources under {ROOT / 'src'}; run from a pilab checkout\n")
        return 2
    reference = load_reference()
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        variants = reference[workload]
        index = args.seed % len(variants)
        variant = variants[index]
        passes = run_workload(workload, variant["params"], args.seconds, bool(args.trace),
                              variant["digests"])
        versions = next((p["versions"] for p in passes if "versions" in p), {})
        print(json.dumps({"workload": workload, "seed": args.seed, "variant": index,
                          "params": variant["params"], "passes": len(passes), **versions, **env}))
        for i, p in enumerate(passes):
            print(f"pass {i} traced={int(p['traced'])} ok={all(p['ok'])} "
                  + " ".join(f"{k}={p[k]:.4f}" for k in END_TO_END + RAW if k in p))
            for line, seconds, raw in p.get("steps", ()):
                print(f"  {seconds:9.4f} s (raw {raw:8.4f} s)  pilab {line}")
            for name, busy in p.get("top_spans", ()):
                print(f"  {busy:9.4f} s  span {name}")
        result = summarize(passes, bool(args.trace))
        extra = detail_metrics(passes)
        for name, value in [(n, m["value"]) for n, m in result["metrics"].items()] + list(extra.items()):
            print(f"{workload:8s} {name:28s} {value:16.6f} {unit(name)}")
        results[workload] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
