"""Self-tests of the benchmark at its smallest size.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run as bench  # noqa: E402
import workloads as W  # noqa: E402

TINY_SECONDS = 1.0      # every count at its minimum


@pytest.fixture(scope="module")
def reports():
    return {(name, trace): bench.run_one(name, seed=0, seconds=TINY_SECONDS,
                                         trace=trace)
            for name in W.WORKLOADS for trace in (0, 1)}


def test_tiny_run_emits_every_named_metric(reports):
    for (name, trace), rep in reports.items():
        correct, line = bench.result_line(rep, trace)
        assert correct, (name, trace, rep["error"])
        assert set(line["metrics"]) == set(bench.expected_metrics(trace))
        assert line["attempted"] >= 1 and line["failed"] == 0
        if not trace:
            assert all(m["value"] > 0 for m in line["metrics"].values()), \
                line["metrics"]


def test_traced_spans_nest_and_self_time_is_nonnegative(reports):
    for name in W.WORKLOADS:
        tr = reports[(name, 1)]["tracer"]
        assert not tr.missing
        start, end, parent, _, self_ns = tr.arrays()
        assert len(start) > 0
        child = parent >= 0
        assert (start[child] >= start[parent[child]]).all()
        assert (end[child] <= end[parent[child]]).all()
        assert (end >= start).all()
        assert (self_ns >= 0).all()


def test_tracing_leaves_outputs_unchanged(reports):
    for name in W.WORKLOADS:
        plain = reports[(name, 0)]["outputs"]
        traced = reports[(name, 1)]["outputs"]
        assert {"tour_lengths", "demo_sha256", "params_sha256"} <= set(plain)
        assert plain == traced


def test_distribution_reports_tail_only_with_ten_samples_beyond():
    assert W.distribution([3.0, 1.0, 2.0])["tail"] is None
    assert W.distribution([float(i) for i in range(20)])["tail"] is None
    d = W.distribution([float(i) for i in range(1, 31)])
    assert (d["median"], d["n"], d["tail_pct"]) == (15.5, 30, 66)
