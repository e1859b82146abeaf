"""Every benchmark job's output passes the benchmark's own checks against
its ``bench/reference.json`` entry, not only the jobs a short run reaches.
The benchmark records each decimal job's certified depth with
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
ALL_JOBS = {
    (w, j.key): j for w in inputs.WORKLOADS for p in inputs.POOLS[w]().values() for j in p
}
DEC_JOBS = {key: j for (_, key), j in ALL_JOBS.items() if j.kind == "dec"}


@pytest.fixture(scope="module")
def references():
    return json.loads((BENCH / "reference.json").read_text())


@pytest.fixture(scope="module")
def reference(references):
    return references["decimal-expand"]


@pytest.mark.parametrize("workload, key", sorted(ALL_JOBS))
def test_bench_job_output_checks_out(references, workload, key):
    job, ref = ALL_JOBS[workload, key], references[workload][key]
    assert jobs.check(job, jobs.run(job, ref), ref) is None


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
