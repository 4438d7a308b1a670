"""Event-core, checkpoint and lint performance microbenchmarks.

Thin wrapper over :mod:`repro.bench.perf` (the same suite ``repro
bench`` runs) so perf numbers are archived next to the figure tables.
Runs the quick profile: the CI gate lives in the ``bench-smoke`` job,
this artifact is for the trajectory record.
"""

import json
import os

from bench_util import RESULTS_DIR

from repro.bench import check_result, run_benches
from repro.campaign.artifacts import atomic_write_text


def test_perf_suite(benchmark):
    result = benchmark.pedantic(
        lambda: run_benches(quick=True),
        rounds=1, iterations=1,
    )
    atomic_write_text(
        os.path.join(RESULTS_DIR, "perf.json"),
        json.dumps(result, indent=2, sort_keys=True) + "\n",
    )
    churn = result["benches"]["event_churn"]
    print(f"\nevent churn: {churn['events_per_sec']:,.0f} ev/s "
          f"({churn['speedup']:.2f}x over the pre-calendar heap)")
    assert not check_result(result)
