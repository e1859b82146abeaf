"""The benchmark records each decimal job's certified depth with
``bench/jobs.py::certified_depth``, which steps ``expand_step`` by hand;
it must agree with what ``expand`` certifies."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from bcf import formats
from bcf.errors import AmbiguousFloor
from bcf.expansion import expand

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        inputs, jobs = importlib.import_module("inputs"), importlib.import_module("jobs")
    finally:
        sys.path.remove(str(BENCH))
    pool = {j.key: j for p in inputs.POOLS["decimal-expand"]().values() for j in p}
    reference = json.loads((BENCH / "reference.json").read_text())["decimal-expand"]
    return jobs, pool, reference


@pytest.mark.parametrize("key", ["dec1/p1-1-0-theta-t200", "dec-tuple/ones-3-t5"])
def test_certified_depth_matches_expand(bench, key):
    jobs, pool, reference = bench
    job = pool[key]
    depth = jobs.certified_depth(job)
    values = [formats.parse_value_spec(s) for s in job.args]
    assert len(expand(values, depth)) == depth
    with pytest.raises(AmbiguousFloor):
        expand(values, depth + 1)
    assert depth >= reference[key]["certified"]
