"""The benchmark's three workloads (`perfbench/workloads.py`, loaded
read-only), run in-process at seed 42, give the result digests pinned here,
and so do they at the held-out seed 7.
A digest covers everything the workload records: `assoc verify --n-max 5`'s
output and default polytopes, the n = 6 polytopes built, written, reloaded
and analysed, and the `assoc compare` reports on n = 5 files.  A change to
any of these outputs fails this test until the digests are pinned again,
with the reason for the change."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

DIGESTS = {
    "verify_n5": "f9146b54ffaff5de0bc9fe4478285f8de034e7a454d4ee83a9e00359b9199b59",
    "build_analyze_n6": "69f59b3ed7e716873cc47dce912a19f2f7af0ee09eb2e16da78072447089a650",
    "compare_n5": "951b1d35597e804c7f9141394e3f86a2949f539a9b91538130a7d0c610f4dc57",
}

# seed 7 draws other secondary, cluster and Minkowski parameters;
# verify_n5 draws nothing, so its digest is seed 42's
DIGESTS_AT_SEED_7 = {
    "verify_n5": DIGESTS["verify_n5"],
    "build_analyze_n6": "ca91132500fd23c24b1e7bd839ef5c7f5a9d094741075a2ac7e2949752b2d7fd",
    "compare_n5": "b1ffc8768e0713f649c800442f76633260b547fd1afdb10af29d4fe498cedd3b",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(name, seed, tmp_path):
    workloads = _workloads()
    records = []
    for op in workloads.SETUPS[name](seed, tmp_path):
        failed, record = op.run()
        assert failed == 0
        records.append(record)
    return hashlib.sha256(workloads.canonical(records)).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest_at_seed_42(tmp_path, name):
    assert _digest(name, 42, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS_AT_SEED_7))
def test_workload_digest_at_seed_7(tmp_path, name):
    assert _digest(name, 7, tmp_path) == DIGESTS_AT_SEED_7[name]
