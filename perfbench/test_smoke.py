"""Smoke test of the benchmark: every workload at tiny sizes, both trace modes.

Checks the result schema, that no operation failed and that the traced run
sees every fit; it never gates on time.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert detail["error_rate"]["value"] == 0
    assert detail["digests"] and detail["machine"]["blas_threads"] == 1

    if trace:
        layers = detail["layers"]
        # every fit, including those reached through `from ... import`
        # names in sparse and modelsel, is seen by the tracer
        assert layers["numkern.orthonormal_range.calls"] == layers["qr_calls_expected"]
        if workload == "wide-oracle":
            # the battery runs its checks through a tuple bound at import
            assert layers["batteries.check_stability_chain.s"] > 0
            assert layers["scm.population_anchor.calls"] > 0


def test_instrument_restores_every_binding():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import tracing
        from anchorlab import batteries, estimators, modelsel, sparse

        before = (sparse.fit_anchor, modelsel.fit_anchor, batteries.DEFAULT_BATTERY,
                  batteries.run_battery.__defaults__)
        restore = tracing.instrument(tracing.Tracer())
        assert sparse.fit_anchor is modelsel.fit_anchor is estimators.fit_anchor
        assert sparse.fit_anchor.__wrapped__ is before[0]
        assert batteries.run_battery.__wrapped__.__defaults__[1] == batteries.DEFAULT_BATTERY
        assert all(hasattr(check, "__wrapped__") for check in batteries.DEFAULT_BATTERY)
        restore()
        after = (sparse.fit_anchor, modelsel.fit_anchor, batteries.DEFAULT_BATTERY,
                 batteries.run_battery.__defaults__)
        assert all(a is b for a, b in zip(before, after))
    finally:
        del sys.path[:2]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
