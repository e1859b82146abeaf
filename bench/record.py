#!/usr/bin/env python3
"""Record ``reference.json``: one output digest per pool job, taken at a
commit whose outputs are trusted, and for each decimal literal the number
of digit tuples that commit certified before refusing.

    python3 bench/record.py

Every job must also pass its independent checks while it is recorded.
Run it again only when a change of output is intended, and say so.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import jobs  # noqa: E402


def main() -> int:
    reference: dict = {}
    for workload in inputs.WORKLOADS:
        start = time.perf_counter()
        entries = reference[workload] = {}
        for job in (j for pool in inputs.POOLS[workload]().values() for j in pool):
            entry = {"certified": jobs.certified_depth(job)} if job.kind == "dec" else {}
            outcome = jobs.run(job, entry)
            entry["digest"] = outcome.digest
            problem = jobs.check(job, outcome, entry)
            if problem:
                raise SystemExit(f"{job.key}: {problem}")
            entries[job.key] = entry
        print(f"{workload}: {len(entries)} jobs in {time.perf_counter() - start:.1f} s")
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
