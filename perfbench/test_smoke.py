"""Smoke test of the benchmark itself: every workload's code path, traced
and untraced, and every check, on tiny instances. Takes seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_source_tree()

from harness import (END_TO_END_UNITS, LAYER_UNITS, report,  # noqa: E402
                     run_workload)
from workloads import workloads  # noqa: E402

NAMES = list(run.WORKLOAD_NAMES)


def test_tiny_workloads_define_every_workload():
    assert sorted(workloads(tiny=True)) == sorted(NAMES)
    assert sorted(workloads()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_checks_pass(name, trace, tmp_path):
    wl = workloads(tiny=True)[name]
    record = run_workload(wl, seed=3, seconds=0, trace=trace,
                          out_dir=tmp_path)
    failed = [c for c in record["checks"] if not c["ok"]]
    assert not failed, failed
    assert record["correct"] and record["failed"] == 0
    assert record["rounds"] == 1
    assert record["attempted"] == wl.setup_reps + sum(
        op.reps for op in wl.ops())
    result = report(record, tmp_path)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    for name_, m in result["metrics"].items():
        assert m["unit"] == units[name_]
        assert m["value"] >= 0
    if trace:
        assert (tmp_path / "traces" / f"{name}-seed3.json").is_file()
    else:
        for name_ in END_TO_END_UNITS:
            assert result["metrics"][name_]["value"] > 0, name_


def test_tracing_restores_the_program():
    import evoinf
    import evoinf.incremental as inc
    from tracing import Tracer

    before = (evoinf.mia_select, inc.accumulate_deltas,
              inc.DeltaTable.add, inc.EvolutionContext.kernel_stream)
    with Tracer().installed():
        assert evoinf.mia_select is not before[0]
    after = (evoinf.mia_select, inc.accumulate_deltas,
             inc.DeltaTable.add, inc.EvolutionContext.kernel_stream)
    assert after == before


def test_command_fails_without_the_sources(tmp_path):
    lone = tmp_path / "perfbench"
    lone.mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (lone / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(lone / "run.py"), "--workload", "greedy-200",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
