"""The benchmark's own correctness check finds no wrong op in one round.

The workloads are imported from `bench/` as they are; nothing there is
changed or patched.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["runs", "covers", "files"])
def test_one_round_passes_the_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(1, tmp_path)
    ops = next(workload.rounds(ctx))
    records = [(op, workload.digest(ctx, op, workload.execute(ctx, op))) for op in ops]
    wrong, checked = workload.check(ctx, records, random.Random(1))
    assert checked == len(ops) > 0
    assert not wrong
