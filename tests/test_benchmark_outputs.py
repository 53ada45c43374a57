"""The benchmark workloads' outputs, byte for byte.

Every workload in perfbench/workloads.py is solved once with its own inputs,
and the sha256 of the text it returns is compared with the digest recorded in
perfbench/digests.json, so a change to any report shows in the test suite and
not only in a benchmark run.  Both files are only read.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def test_every_workload_has_a_digest():
    assert sorted(WORKLOADS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_matches_its_digest(name):
    workload = WORKLOADS[name]
    text = workload.solve(workload.setup(1))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
