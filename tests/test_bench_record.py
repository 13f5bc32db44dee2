"""The BENCH writer's parsers, on canned output: no benchmark runs here."""

import pytest

import bench_record

ENV = '{"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "nproc": 2, "affinity": 2}'

# two workloads of `bench/run.py --workload all --trace 0`, the second
# without a result line (its process failed), then run_all's table
RUN_ALL = f"""workload certify-stream  seed 1  trace 0
env {ENV}
rounds 35 of 200 operations; attempted 7000 failed 70
setup runs (s, as measured) 0.1040 0.1045 0.1078 0.1109 0.1191
setup_s = 0.164426 s
ops_per_s = 17861.2 op/s
all samples, CPU time as measured: 24228.9 op/s, p50 0.0387135 ms, p99 0.0974046 ms over 7000 operations
{{"correct": true, "attempted": 7000, "failed": 70, "metrics": {{"setup_s": {{"value": 0.1644, "unit": "s"}}, \
"ops_per_s": {{"value": 17861.2, "unit": "op/s"}}}}}}
workload sweep-cli  seed 1  trace 0
env {ENV}

certify-stream       correct True  attempted    7000 failed    70
"""


def test_parse_run_all():
    env, results = bench_record.parse_run_all(RUN_ALL)
    assert env == {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
                   "nproc": 2, "affinity": 2}
    assert list(results) == ["certify-stream"]
    result = results["certify-stream"]
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 7000, 70)
    assert result["metrics"]["ops_per_s"] == {"value": 17861.2, "unit": "op/s"}


def test_summarize_keeps_median_min_max():
    runs = [
        {"correct": True, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": v, "unit": "op/s"}}}
        for v in (3.0, 1.0, 2.0)
    ]
    runs[1]["correct"] = False
    got = bench_record.summarize(runs)
    assert got["runs"] == 3 and got["correct"] is False
    assert got["metrics"]["ops_per_s"] == {"unit": "op/s", "median": 2.0, "min": 1.0, "max": 3.0,
                                           "runs": [3.0, 1.0, 2.0]}


@pytest.mark.parametrize(
    "text, counts",
    [
        ("....x\n1376 passed, 5 xfailed in 9.04s\n", {"passed": 1376, "xfailed": 5}),
        ("F.\n1 failed, 1 passed, 2 errors in 0.10s\n", {"failed": 1, "passed": 1, "errors": 2}),
        ("no tests ran\n", {}),
    ],
)
def test_parse_pytest_summary(text, counts):
    assert bench_record.parse_pytest_summary(text) == counts
