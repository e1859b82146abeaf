#!/usr/bin/env python3
"""The bcf benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload field-period --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; ``bcf`` is imported from its ``src``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1``
it times the calls into each layer instead (see README.md beside this
file).  Every output is checked, and the last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Rounds in the measured set: enough that the seed's draw moves job_tail_s
# little, few enough that a job runs 4-6 times in a run.  decimal-expand needs
# about twice as many 400-digit literals as job_tail_s has jobs beyond it.
ROUNDS = {"field-period": 12, "digit-probe": 16, "decimal-expand": 20}
MIN_PASSES = 3  # a job's time is the median of at least this many runs
SETUP_MIN = 7  # fresh interpreters per run at least
SETUP_EVERY = 2.0  # seconds between fresh interpreters, spread over the run
TRACE_ROUNDS = 10  # the traced run covers exactly these rounds of the seed
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from bcf.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bcf" / "__init__.py").is_file():
        print(f"error: no bcf package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs  # noqa: E402  (needs the path above)

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(inputs.WORKLOADS), file=sys.stderr)
        return 2
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    bench = Bench(args.workload, args.seed, reference)
    print(f"bcf benchmark  workload={args.workload} seed={args.seed} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"loop=closed, one client, one process")
    if args.trace:
        result = bench.traced()
    else:
        result = bench.untraced(args.seconds)
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, workload: str, seed: int, reference: dict):
        import inputs
        import jobs

        self.inputs, self.jobs = inputs, jobs
        self.workload, self.seed = workload, seed
        self.pools = inputs.POOLS[workload]()
        self.refs = reference[workload]
        self.failures: list[str] = []
        self.attempted = 0
        self.setup_outputs: set = set()

    def rounds(self):
        return self.inputs.rounds(self.workload, self.seed, self.pools)

    def check(self, job, outcome) -> bool:
        problem = self.jobs.check(job, outcome, self.refs[job.key])
        if problem:
            self.failures.append(f"{job.key}: {problem}")
        return problem is None

    def execute(self, job, timer):
        """Run a job once through ``timer`` and check it.

        Returns (seconds, tuples produced), or None when the job raised or
        gave a wrong output.
        """
        self.attempted += 1
        gc.collect()
        try:
            outcome, seconds = timer(self.jobs.run, job, self.refs[job.key])
        except Exception as exc:  # a job must not stop the run; it counts as failed
            self.failures.append(f"{job.key}: {type(exc).__name__}: {exc}")
            return None
        return (seconds, outcome.tuples) if self.check(job, outcome) else None

    def run_pass(self, batch, timer):
        """Run each job of ``batch`` once; (seconds, tuples) per job that did not fail."""
        return [r for r in (self.execute(job, timer) for job in batch) if r is not None]

    # -- untraced: end-to-end metrics ------------------------------------------

    def untraced(self, seconds: float) -> dict:
        setup = self.inputs.setup_job(self.workload, self.seed)
        self.spawn(setup)  # compiles bytecode; not counted
        rounds = self.rounds()
        batch = [job for _ in range(ROUNDS[self.workload]) for job in next(rounds)]
        order = random.Random(f"passes-{self.workload}-{self.seed}")
        samples: list[list[float]] = [[] for _ in batch]
        tuples = [None] * len(batch)
        failed_jobs: set[int] = set()
        self.run_pass(batch[:len(self.pools)], _timed)  # warm-up round, not counted
        waits = []
        gc.collect()
        gc.freeze()
        start = last_spawn = time.perf_counter()
        waits.append(self.spawn(setup))
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            # Every pass runs the whole set in a fresh order, and a job's time is
            # the median of its passes, so a slow or fast spell of the machine
            # moves a few samples of every job rather than every sample of a few.
            for i in order.sample(range(len(batch)), len(batch)):
                if passes >= MIN_PASSES and time.perf_counter() - start >= seconds:
                    break
                if time.perf_counter() - last_spawn >= SETUP_EVERY:
                    last_spawn = time.perf_counter()
                    waits.append(self.spawn(setup))
                if i in failed_jobs:
                    continue
                result = self.execute(batch[i], _timed)
                if result is None:
                    failed_jobs.add(i)
                else:
                    samples[i].append(result[0])
                    tuples[i] = result[1]
            else:
                passes += 1
        measured = time.perf_counter() - start
        while len(waits) < SETUP_MIN:
            waits.append(self.spawn(setup))
        self.check_setup(setup)
        times, tuple_time, produced = [], 0.0, 0
        spreads = []
        for i, runs in enumerate(samples):
            if i in failed_jobs:
                continue
            dt = statistics.median(runs)
            times.append(dt)
            spreads.append((max(runs) - min(runs)) / dt)
            if tuples[i] is not None:
                produced += tuples[i]
                tuple_time += dt
        times.sort()
        tail_rank = max(len(times) - 10, 1)
        failed = len(self.failures)
        print(f"jobs {len(times)} ({ROUNDS[self.workload]} rounds of {len(self.pools)} strata), "
              f"each the median of {passes} or {passes + 1} runs in shuffled passes; "
              f"{measured:.1f} s of measuring")
        metrics = {
            "setup_s": (statistics.median(waits), "s",
                        f"median of {len(waits)} fresh interpreters to the first output "
                        "of the smallest job"),
            "job_p50_s": (statistics.median(times), "s", "median wall time of one job"),
            "job_tail_s": (times[tail_rank - 1], "s",
                           f"p{100 * tail_rank / len(times):.1f}, "
                           f"{len(times) - tail_rank} jobs beyond it"),
            "tuples_per_s": (produced / tuple_time if tuple_time else 0.0, "1/s",
                             TUPLE_MEANING[self.workload]),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                            "peak resident memory of this process"),
        }
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:14s} {value:12.6g} {unit:4s} {note}")
        print(f"  {'failed_share':14s} {failed / max(self.attempted, 1):12.6g} share "
              f"{failed} of {self.attempted} job runs failed")
        if spreads:
            print(f"noise floor: the runs of one job differ by "
                  f"{100 * statistics.median(spreads):.1f}% (median over jobs of "
                  "max-min over median); figures are not normalised")
        self.report_failures()
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }

    def spawn(self, job) -> float:
        """Seconds from starting a fresh interpreter on ``job`` to its first output byte."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, *job.args], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            first = proc.stdout.read(1)
            wait = time.perf_counter() - start
            self.setup_outputs.add((proc.wait(), first + proc.stdout.read()))
        return wait

    def check_setup(self, job):
        self.attempted += 1
        code, text = self.jobs.run_cli(job.args)
        problem = self.jobs.check_setup(job, code, text)
        if self.setup_outputs != {(code, text.encode())}:
            problem = "fresh-interpreter output differs from the in-process run"
        if problem:
            self.failures.append(f"{job.key}: {problem}")

    def report_failures(self):
        for line in self.failures[:20]:
            print(f"FAILED {line}")

    # -- traced: per-layer metrics ----------------------------------------------

    def traced(self) -> dict:
        from spans import COUNTS, TARGETS, Tracer

        rounds = self.rounds()
        batch = [job for _ in range(TRACE_ROUNDS) for job in next(rounds)]
        untraced = [dt for dt, _ in self.run_pass(batch, _timed)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [dt for dt, _ in self.run_pass(batch, tracer.run_job)]
        finally:
            tracer.uninstall()
        calls, self_s = tracer.aggregate()
        counts = tracer.run_counts()
        metrics = {}
        for name in TARGETS:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        for name in COUNTS:
            metrics[name] = (counts[name], "bits" if name.endswith("bits_max") else "count")
        # Per job, so that a slow spell of the machine moves one ratio, not the sum.
        overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1
        metrics["trace.overhead_share"] = (overhead, "share")
        metrics["trace.harness_self_s"] = (self_s["job"], "s")

        per_job = [{"job": job.key, "counts": dict(sorted(tracer.job_counts[i].items()))}
                   for i, job in enumerate(batch)]
        digest = hashlib.sha256(json.dumps(per_job).encode()).hexdigest()
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{self.workload}-seed{self.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "seed": self.seed, "jobs": per_job,
                       "work_counts_sha256": digest, **tracer.dump()}, fh)
        print(f"traced {len(batch)} jobs ({TRACE_ROUNDS} rounds); "
              f"{len(tracer.span_name)} spans written to {path.relative_to(ROOT)}")
        print(f"tracing overhead: {100 * overhead:.1f}% over the same jobs untraced, median "
              f"per job ({sum(untraced):.2f} s -> {sum(traced):.2f} s in all)")
        print(f"work counts sha256 {digest}")
        if tracer.absent:
            print("absent (not in this version of bcf): " + ", ".join(tracer.absent))
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:14.6g} {unit}")
        self.report_failures()
        failed = len(self.failures)
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


TUPLE_MEANING = {
    "field-period": "certified digit tuples per second of job time",
    "digit-probe": "convergent tuples per second of convergents-job time",
    "decimal-expand": "certified digit tuples per second of job time",
}


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
