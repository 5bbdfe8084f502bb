"""The benchmark under perfbench/ drives the package through its public calls
(plan, collect, make_meta, run_episode, ppo_finetune, evaluate).  A package
change that breaks one of them shows here, at one-second budgets, rather
than only when the benchmark itself runs."""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                   "run.py")


@pytest.mark.parametrize("workload", ["plan-20", "train-3"])
def test_benchmark_workload_runs_and_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
