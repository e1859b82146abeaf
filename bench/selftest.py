#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that every alg: interval isolates exactly one root (by a Sturm
count), that the job pools and reference.json name the same jobs, that a
seed always yields the same inputs, and that two traced runs with the same
seed report identical work counts.  Exits 1 on the first failed section.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

SEED = 7


def check_intervals() -> list[str]:
    problems = []
    consts = {}
    for build in inputs.POOLS.values():
        for pool in build().values():
            for job in pool:
                if job.const is not None and job.const.poly:
                    consts[job.const.name] = job.const
    # Building the pools validated every constant; a bad one would have raised.
    # A sign change is not enough: x^3 - x changes sign on (-2, 2) with three roots there.
    try:
        inputs.Constant("three-roots", (0, -1, 0, 1), -2, 2, ((0, 1),))
        problems.append("an interval holding three roots was accepted")
    except ValueError:
        pass
    print(f"intervals: {len(consts)} constants validated by Sturm count")
    return problems


def check_reference() -> list[str]:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    problems = []
    for workload, build in inputs.POOLS.items():
        keys = {job.key for pool in build().values() for job in pool}
        recorded = set(reference.get(workload, {}))
        if keys != recorded:
            problems.append(f"{workload}: {len(keys - recorded)} jobs unrecorded, "
                            f"{len(recorded - keys)} recorded jobs not in the pool")
    print("reference: every pool job has a recorded entry")
    return problems


def check_determinism() -> list[str]:
    problems = []
    for workload, build in inputs.POOLS.items():
        pools = build()
        first, again, other = (inputs.rounds(workload, s, pools) for s in (SEED, SEED, SEED + 1))
        a = [[j.key for j in next(first)] for _ in range(5)]
        b = [[j.key for j in next(again)] for _ in range(5)]
        c = [[j.key for j in next(other)] for _ in range(5)]
        if a != b:
            problems.append(f"{workload}: one seed gave two different job sequences")
        if a == c:
            problems.append(f"{workload}: two seeds gave the same job sequence")
        for seed in (SEED, SEED + 1):
            if inputs.setup_job(workload, seed) != inputs.setup_job(workload, seed):
                problems.append(f"{workload}: setup job is not a function of the seed")
    print("inputs: a seed fixes the job sequence and the setup job")
    return problems


def traced_counts(workload: str) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    digest = next(line.split()[-1] for line in out if line.startswith("work counts sha256"))
    metrics = json.loads(out[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if not k.endswith("_s")
              and not k.startswith("trace.")}
    return digest, counts


def check_counts() -> list[str]:
    problems = []
    for workload in inputs.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        if first != second:
            problems.append(f"{workload}: two traced runs of seed {SEED} counted different work")
        else:
            print(f"counts: {workload} repeats exactly (sha256 {first[0][:16]}...)")
    return problems


def main() -> int:
    for section in (check_intervals, check_reference, check_determinism, check_counts):
        problems = section()
        if problems:
            for p in problems:
                print(f"FAIL {p}")
            return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
