"""The benchmark records each decimal job's certified depth with
``bench/jobs.py::certified_depth``, which steps ``expand_step`` by hand;
it must agree with what ``expand`` certifies.  Its field moduli each find a
prime key modulus M within the key point's search window."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from bcf import formats
from bcf.arith import numberfield
from bcf.errors import AmbiguousFloor
from bcf.expansion import expand

BENCH = Path(__file__).resolve().parents[1] / "bench"

sys.path.insert(0, str(BENCH))
try:
    inputs, jobs = importlib.import_module("inputs"), importlib.import_module("jobs")
finally:
    sys.path.remove(str(BENCH))
DEC_JOBS = {
    j.key: j for p in inputs.POOLS["decimal-expand"]().values() for j in p if j.kind == "dec"
}


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference.json").read_text())["decimal-expand"]


@pytest.mark.parametrize("key", sorted(DEC_JOBS))
def test_certified_depth_matches_expand(reference, key):
    job = DEC_JOBS[key]
    depth = jobs.certified_depth(job)
    values = [formats.parse_value_spec(s) for s in job.args]
    assert len(expand(values, depth)) == depth
    with pytest.raises(AmbiguousFloor):
        expand(values, depth + 1)
    assert depth >= reference[key]["certified"]


def test_field_period_moduli_find_a_prime_key_modulus():
    moduli = {j.const.poly for p in inputs.POOLS["field-period"]().values() for j in p if j.const}
    assert len(moduli) > 20
    for poly in sorted(moduli):
        assert numberfield._key_point(poly)[2], poly
