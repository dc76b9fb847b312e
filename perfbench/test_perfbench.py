"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import layertrace
import run
from workloads import Step, steps

PI_STEP = Step(("constants", "--name", "pi", "--digits", "300", "--out", "pi.digits"), ("pi.digits",))
AUDIT_STEP = Step(("audit", "--lemma", "caseII", "--k", "3", "--out", "audit.json"), ("audit.json",))


def _flip(path: Path, index: int) -> None:
    data = bytearray(path.read_bytes())
    data[index] = ord("7") if data[index] != ord("7") else ord("8")
    path.write_bytes(bytes(data))


def test_good_digit_file_passes(tmp_path):
    path = tmp_path / "pi.digits"
    path.write_bytes(checks.digit_file_bytes(checks.constant_digits("pi", 300), "pi"))
    assert checks.check_step(PI_STEP, 0, tmp_path, {"pi.digits": checks.sha256(path)})
    assert checks.check_step(PI_STEP, 0, tmp_path, None)


def test_one_corrupted_digit_fails_the_oracle_and_the_digest(tmp_path):
    path = tmp_path / "pi.digits"
    path.write_bytes(checks.digit_file_bytes(checks.constant_digits("pi", 300), "pi"))
    digests = {"pi.digits": checks.sha256(path)}
    _flip(path, len(path.read_bytes()) - 2)  # the last digit
    assert not checks.check_step(PI_STEP, 0, tmp_path, digests)
    assert not checks.check_step(PI_STEP, 0, tmp_path, None)


def test_one_corrupted_report_byte_fails(tmp_path):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"rows": [{"n": 4, "pass": True}]}, indent=2) + "\n")
    digests = {"audit.json": checks.sha256(path)}
    assert checks.check_step(AUDIT_STEP, 0, tmp_path, digests)
    _flip(path, 20)
    assert not checks.check_step(AUDIT_STEP, 0, tmp_path, digests)


def test_nonzero_exit_or_missing_output_fails(tmp_path):
    (tmp_path / "audit.json").write_text("{}\n")
    assert not checks.check_step(AUDIT_STEP, 1, tmp_path, None)
    assert not checks.check_step(PI_STEP, 0, tmp_path, None)


def test_failures_count_against_attempts():
    passes = [
        {"ok": [True, True], "traced": False, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 50.0,
         "raw_wall_s": 1.1, "raw_setup_s": 0.1, "probe_speed": 0.9, "commands": {"constants": 0.5}},
        {"ok": [True, False], "traced": False, "wall_s": 1.2, "setup_s": 0.1, "peak_rss_mb": 50.0,
         "raw_wall_s": 1.3, "raw_setup_s": 0.1, "probe_speed": 0.9, "commands": {"constants": 0.7}},
    ]
    result = run.summarize(passes, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)
    assert run.detail_metrics(passes)["fail_ratio"] == 0.25


def test_oracles_match_known_digits():
    assert checks.constant_digits("pi", 10) == "1415926535"
    assert checks.constant_digits("ln10", 10) == "3025850929"
    assert checks.constant_digits("ln_pi", 10) == "1447298858"
    assert checks.integer_concat_digits(15) == "123456789101112"
    assert checks.prime_count(1_000_000) == 78496


def test_every_workload_builds_its_steps():
    reference = run.load_reference()
    for workload, variants in reference.items():
        for variant in variants:
            setup, timed = steps(workload, variant["params"])
            files = {f for s in setup + timed for f in s.outputs}
            assert files == set(variant["digests"]), workload


def _traced_child(tmp_path: Path, argvs: list[list[str]]) -> dict:
    spec = {
        "src": str(run.ROOT / "src"),
        "trace": True,
        "setup": [],
        "timed": [{"argv": a, "stdout": None} for a in argvs],
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(run.HERE / "child.py"), str(tmp_path / "spec.json")],
                   cwd=tmp_path, env=run._child_env(tmp_path, None), check=True, timeout=120)
    return json.loads((tmp_path / "result.json").read_text())


def test_traced_child_charges_layers_and_counts_work(tmp_path):
    res = _traced_child(tmp_path, [
        ["constants", "--name", "pi", "--digits", "500", "--out", "pi.digits"],
        ["artin", "--limit", "1000", "--out", "artin.json"],
    ])
    assert res["timed_rc"] == [0, 0]
    data = json.loads((tmp_path / "spans.json").read_text())
    metrics = layertrace.layer_metrics(data)
    assert metrics["radix.bytes_written"] == (tmp_path / "pi.digits").stat().st_size
    assert metrics["constants.digits_released"] >= 500
    assert metrics["primes.sieve_limit"] == 1000
    assert metrics["groups.factorize_calls"] > 0
    assert metrics["constants.self_s"] > 0 and metrics["groups.self_s"] > 0
    # exclusive times of all layers add up to the time spent inside cli.main
    roots = sum(s["busy"] for s in data["spans"] if s["parent"] < 0)
    assert abs(sum(data["self_s"].values()) - roots) < 1e-6
    assert all(s["name"] == "cli.main" for s in data["spans"] if s["parent"] < 0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
