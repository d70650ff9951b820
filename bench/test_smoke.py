"""Smoke test: a tiny-size run of every workload emits every declared metric.

Reads the metric names and units from BENCHMARK.json at the repository root
and checks that ``--trace 0`` emits exactly the end-to-end metrics and
``--trace 1`` exactly the per-layer metrics, each with its unit, and that
every call's output passes its check.  Takes about a minute:

    python3 -m pytest bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload["name"], seed=7, seconds=0.0, trace=trace, tiny=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            assert got == want, (workload["name"], section)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name


if __name__ == "__main__":
    test_every_metric_is_emitted_with_its_unit()
    print("smoke test passed")
