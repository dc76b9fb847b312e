"""tools/bench_pairs.py's parser and summarizer on canned harness output: no
benchmark run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# standard output of `perfbench/run.py --workload all --trace 0`, cut to two
# workloads and one pass each
CANNED = """\
{"workload": "certify", "seed": 3, "variant": 0, "params": {"pi": 30000}, "passes": 1, "python": "3.11.7", \
"numpy": "2.4.6", "nproc": 2, "commit": "unknown"}
pass 0 traced=0 ok=True wall_s=0.2101 setup_s=0.1803 peak_rss_mb=44.6992 raw_wall_s=0.2511 raw_setup_s=0.1901
     0.1200 s (raw   0.1400 s)  pilab constants --name pi --digits 30000
certify  wall_s                               0.210123 s
certify  setup_s                              0.180321 s
certify  peak_rss_mb                         44.699219 MB
certify  raw_wall_s                           0.251100 s
certify  raw_setup_s                          0.190100 s
certify  probe_speed                          0.909689 ratio
certify  constants_s                          0.120000 s
certify  fail_ratio                           0.000000 ratio
{"workload": "scan", "seed": 3, "variant": 1, "params": {"limit": 1000000}, "passes": 1, "python": "3.11.7", \
"numpy": "2.4.6", "nproc": 2, "commit": "unknown"}
pass 0 traced=0 ok=True wall_s=1.6220 setup_s=0.1822 peak_rss_mb=589.1 raw_wall_s=1.7000 raw_setup_s=0.1943
scan     wall_s                               1.622000 s
scan     setup_s                              0.182200 s
scan     peak_rss_mb                        589.100000 MB
scan     raw_wall_s                           1.700000 s
scan     raw_setup_s                          0.194300 s
scan     fail_ratio                           0.000000 ratio
{"correct": true, "attempted": 9, "failed": 0, "metrics": {"certify.wall_s": {"value": 0.210123, "unit": "s"}}}
"""


def test_parse_run_reads_each_workloads_metrics_and_the_verdict():
    run = bench_pairs.parse_run(CANNED)
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 9, 0)
    assert run["values"] == {
        "certify": {"wall_s": 0.210123, "setup_s": 0.180321, "peak_rss_mb": 44.699219,
                    "raw_wall_s": 0.2511, "raw_setup_s": 0.1901},
        "scan": {"wall_s": 1.622, "setup_s": 0.1822, "peak_rss_mb": 589.1, "raw_wall_s": 1.7, "raw_setup_s": 0.1943},
    }
    assert run["headers"]["scan"]["variant"] == 1


def test_parse_run_refuses_output_without_a_metric():
    cut = "\n".join(line for line in CANNED.splitlines() if not line.startswith("scan     raw_wall_s"))
    with pytest.raises(ValueError, match="^scan: no value for raw_wall_s"):
        bench_pairs.parse_run(cut)


def test_bench_file_orders_runs_and_counts_every_failure():
    runs = []
    for wall, failed in ((0.3, 0), (0.1, 2), (0.2, 0)):
        run = bench_pairs.parse_run(CANNED)
        run["values"]["certify"]["wall_s"] = wall
        run["failed"], run["correct"] = failed, not failed
        runs.append(run)
    record = json.loads(bench_pairs.dumps(bench_pairs.bench_file("a" * 40, "change on b", runs, "h", "m", "d")))
    assert (record["correct"], record["attempted"], record["failed"]) == (False, 27, 2)
    wall = record["workloads"]["certify"]["wall_s"]
    assert wall["runs"] == [0.3, 0.1, 0.2]
    assert (wall["median"], wall["q1"], wall["q3"]) == (0.2, 0.1, 0.3)
    assert list(record["workloads"]["certify"]) == [m for m, _, _ in bench_pairs.METRICS]


def test_summarize_gives_a_committed_files_schema_from_its_runs():
    committed = json.loads((ROOT / "bench" / "BENCH_1b8a319.json").read_text())
    runs = [{"values": {w: {m: entry["runs"][i] for m, entry in metrics.items()}
                        for w, metrics in committed["workloads"].items()}} for i in range(10)]
    got = bench_pairs.summarize(runs)
    assert list(got) == list(committed["workloads"])
    for workload, metrics in committed["workloads"].items():
        assert list(got[workload]) == list(metrics)
        for name, entry in metrics.items():
            assert list(got[workload][name]) == list(entry)
            assert got[workload][name]["runs"] == entry["runs"]
            assert (got[workload][name]["unit"], got[workload][name]["kind"]) == (entry["unit"], entry["kind"])
            # the committed figures come from unrounded runs: within one rounding step
            for key in ("median", "q1", "q3"):
                assert got[workload][name][key] == pytest.approx(entry[key], abs=1.5e-4)
    run = bench_pairs.parse_run(CANNED)
    assert list(bench_pairs.bench_file("x", "r", [run, run], "h", "m", "d")) == list(committed)
