"""Both benchmark workloads run their minimum units and pass their own checks.

The workloads build their configs, load the committed inference weights and
call the package through the same functions the CLI uses.  A package change
that breaks one of those calls, or the metadata reader the committed weights
go through, would otherwise fail only in a benchmark run.
"""
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["train-cascade", "infer-cascade-dense"])
def test_workload_min_units_pass_their_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.setup()
    units = [workload.unit(i) for i in range(workload.min_units)]
    failures, _ = workload.check(units)
    assert failures == []
    assert all(u.failed == 0 and u.items > 0 for u in units)
