"""Every pinned benchmark case, run once: each must get a true verdict
from its chowline-free oracle and an output whose digest equals the one
pinned in ``perfbench/catalogue``.  This is the benchmark's exactness gate
over the whole catalogue rather than the sample one pass draws, so a
change to any kernel shows here as a changed answer, not as a timing.

The test only reads ``perfbench/``: its modules are imported without
writing bytecode, and the input files of CLI cases go to a temporary
directory.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_modules():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import one_pass
        import workloads
    finally:
        sys.dont_write_bytecode = saved
    return one_pass, workloads


one_pass, workloads = _perfbench_modules()


@pytest.mark.parametrize("workload", list(workloads.QUOTAS))
def test_every_pinned_case_keeps_its_verdict_and_digest(workload, tmp_path):
    catalogue = workloads.load_catalogue(workload)
    cases = workloads.prepare(workload, catalogue, tmp_path)
    assert len(cases) == len(catalogue)
    wrong = []
    for entry, case in zip(catalogue, cases):
        assert case.key == entry["key"]
        ok, text = case.check(case.run())
        if not ok or one_pass.digest(text) != entry["digest"]:
            wrong.append((entry["key"], ok, text[-200:]))
    assert not wrong, f"{len(wrong)} of {len(cases)} cases differ: {wrong[:5]}"
