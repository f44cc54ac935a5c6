"""interlacekit benchmark: closed-loop CLI workloads with an optional trace.

Usage (from the repository root):

    python3 bench/run.py --workload cauchy-int --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 7

One client in one process, no threads: each case is an in-process
``interlacekit.cli.main(["check", "--mode", MODE, FILE])`` call on an
input file generated from ``--seed``, and the next case starts when the
previous one returns.  Every report is checked against the verdict the
case was built to have.  Cases run in passes over the workload's pool
until ``--seconds`` have passed and at least MIN_CASES cases ran; the
last pass stops at that point, and each case counts its fastest time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes and prints the per-layer metrics; the spans go
to ``.bench_work/trace-<workload>.json``.  The last line of output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Relative to ROOT, the working directory, so reports name the same
# input paths in every checkout and their digests compare across commits.
WORK = ".bench_work"
PACKAGE = "interlacekit"

SETUP_REPEATS = 9
MIN_CASES = 100
# Passes stop being started after this many seconds, whatever the case
# count, so a run on a slow machine still ends inside its time limit.
HARD_STOP_SECONDS = 120
# The host may run this machine's CPUs at unequal speed: on the 2-vCPU VM
# the benchmark was built on, one vCPU ran 1.6x slower than the other
# through a 40-second probe.  Set-ups and passes therefore rotate over the
# CPUs this process may use, and a case counts its fastest pass, so a run
# does not depend on the CPU the scheduler happened to pick.
CPUS = sorted(os.sched_getaffinity(0))
# Below this share of one CPU, a pass was waiting for another process of
# this machine, and rotation stops (see Rotation).  A CPU shared with one
# other process gives about half; at 0.9, time the host took from the VM
# while it was busy already stopped rotation in most runs.
OWN_CPU_SHARE = 0.75


class Rotation:
    """Moves this process to the next CPU before each stretch of work.

    A process pinned to a CPU that another process of the machine also
    runs on waits for it, and two benchmark processes that rotate in step
    share one CPU for a whole run (on the 2-vCPU VM: 2.4 instead of 5.9
    ``cauchy-int`` cases per second).  So once a watched stretch of work
    gets less than OWN_CPU_SHARE of a CPU, the process is unpinned for
    good and the scheduler places it.  Set-ups are too short to judge.
    """

    def __init__(self):
        self.rotating = True
        self.turn = 0

    @contextmanager
    def step(self, watch=True):
        if self.rotating:
            os.sched_setaffinity(0, {CPUS[self.turn % len(CPUS)]})
        self.turn += 1
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if watch and self.rotating and cpu < OWN_CPU_SHARE * wall:
            self.rotating = False
            os.sched_setaffinity(0, CPUS)


@dataclass
class PassResult:
    case_seconds: list[float] = field(default_factory=list)
    case_digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed_cases: int = 0
    report_bytes: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.case_seconds)

    @property
    def rate(self) -> float:
        return len(self.case_seconds) / self.seconds


def load_library():
    """Import interlacekit afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    if os.path.dirname(os.path.abspath(lib.__file__)) != os.path.join(SRC, PACKAGE):
        raise ImportError(f"{PACKAGE} was imported from {lib.__file__}, not {SRC}")
    return lib, cli


def run_case(cli, case, path):
    """Seconds spent inside the case's CLI calls, and their outputs."""
    seconds = 0.0
    outputs = []
    for argv in case.argvs(path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            code = cli.main(argv)
            seconds += time.perf_counter() - started
        outputs.append((argv[2], code, out.getvalue(), err.getvalue()))
    return seconds, outputs


def check_outputs(case, outputs):
    """Problems found, and the report bodies with ``timing`` stripped."""
    problems = []
    bodies = []
    for mode, code, out, err in outputs:
        if code != 0:
            problems.append(f"{mode}: exit code {code}: {err.strip()}")
        try:
            report = json.loads(out)
            report.pop("timing")
            problems.extend(workloads.check_report(case, mode, report))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{mode}: unexpected report: {exc!r}")
            continue
        bodies.append(json.dumps(report, sort_keys=True, indent=2).encode())
    return problems, bodies


def run_pass(cli, cases, paths, tracer=None, stop=None) -> PassResult:
    """Run the pool once, or until ``stop(cases_done_in_this_pass)`` is true."""
    result = PassResult()
    for case, path in zip(cases, paths):
        if stop is not None and stop(len(result.case_seconds)):
            break
        if tracer is None:
            seconds, outputs = run_case(cli, case, path)
        else:
            with tracer.case(case.attrs()):
                seconds, outputs = run_case(cli, case, path)
        result.case_seconds.append(seconds)
        problems, bodies = check_outputs(case, outputs)
        if problems:
            result.failed_cases += 1
            result.failures.extend(f"case {case.index}: {p}" for p in problems)
        digest = hashlib.sha256()
        for body in bodies:
            digest.update(body)
            result.report_bytes += len(body)
        result.case_digests.append(digest.hexdigest())
    return result


def report_digest(passes):
    """Digest of the pool's report bodies, and problems if a case's bodies vary.

    The first pass always covers the whole pool; a later pass may stop
    at the deadline, so cases are compared one by one.
    """
    problems = []
    for index, first in enumerate(passes[0].case_digests):
        seen = {p.case_digests[index] for p in passes if index < len(p.case_digests)}
        if seen != {first}:
            problems.append(f"case {index}: report bodies differ between passes")
    digest = hashlib.sha256("".join(passes[0].case_digests).encode())
    return digest.hexdigest(), problems


def set_up(workload, seed):
    """Import, generate, write the inputs and run one warm-up case."""
    started = time.perf_counter()
    lib, cli = load_library()
    cases = workloads.generate(lib, workload, seed)
    paths = workloads.write_cases(cases, os.path.join(WORK, workload))
    _, outputs = run_case(cli, cases[0], paths[0])
    seconds = time.perf_counter() - started
    problems, _ = check_outputs(cases[0], outputs)
    return seconds, lib, cli, cases, paths, problems


def keep_going(started, seconds, done):
    elapsed = time.perf_counter() - started
    if elapsed >= HARD_STOP_SECONDS:
        return False
    return elapsed < seconds or done < MIN_CASES


def quantile_ms(values, q):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1] * 1000


def measure(cli, cases, paths, seconds, rotation):
    """Passes over the pool until time is up; the last pass may stop early.

    The first len(CPUS) passes run the whole pool, so every case has a
    time from every CPU; after that a pass stops at the deadline instead
    of running on past it.
    """
    passes = []
    started = time.perf_counter()
    done = 0

    def stop(in_pass):
        return len(passes) >= len(CPUS) and not keep_going(started, seconds, done + in_pass)

    while not passes or not stop(0):
        with rotation.step():
            result = run_pass(cli, cases, paths, stop=stop)
        if not result.case_seconds:
            break
        passes.append(result)
        done += len(result.case_seconds)
    return passes


def measure_traced(cli, cases, paths, seconds, trace_path, seed, rotation):
    """Alternate plain and traced passes; return all passes and the layer metrics.

    Counts come from the first traced pass, self times from all of them.
    A pair is only started if, as long as the last one, it ends in time.
    """
    plain, traced = [], []
    tracer = tracing.Tracer()
    first = None
    started = time.perf_counter()
    pair_seconds = 0.0
    while len(traced) < len(CPUS) or keep_going(
            started - pair_seconds, seconds, sum(len(p.case_seconds) for p in plain + traced)):
        pair_started = time.perf_counter()
        with rotation.step():
            plain.append(run_pass(cli, cases, paths))
            with tracer:
                traced.append(run_pass(cli, cases, paths, tracer))
        pair_seconds = time.perf_counter() - pair_started
        if first is None:
            first = (tracer.calls.copy(), tracer.counts.copy())
    tracer.write(trace_path, seed)
    metrics = tracing.layer_metrics(
        *first, tracer.self_ns, len(cases),
        sum(len(p.case_seconds) for p in traced), traced[0].report_bytes,
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.rate / p.rate for p, t in zip(plain, traced)), "ratio")
    return plain + traced, {name: metric(v, unit) for name, (v, unit) in metrics.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def best_case_seconds(passes):
    """Each pool case's fastest time over the passes that reached it."""
    return [
        min(p.case_seconds[index] for p in passes if index < len(p.case_seconds))
        for index in range(len(passes[0].case_seconds))
    ]


def end_to_end(passes, setup_seconds):
    best = best_case_seconds(passes)
    return {
        "cases_per_s": metric(len(best) / sum(best), "1/s"),
        "case_p50_ms": metric(statistics.median(best) * 1000, "ms"),
        "case_p90_ms": metric(quantile_ms(best, 90), "ms"),
        "setup_s": metric(statistics.median(setup_seconds), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    setup_seconds = []
    problems = []
    rotation = Rotation()
    for _ in range(SETUP_REPEATS):
        with rotation.step(watch=False):
            elapsed, lib, cli, cases, paths, warm_problems = set_up(workload, seed)
        setup_seconds.append(elapsed)
        problems.extend(f"warm-up: {p}" for p in warm_problems)

    if trace:
        trace_path = os.path.join(WORK, f"trace-{workload}.json")
        passes, metrics = measure_traced(cli, cases, paths, seconds, trace_path, seed,
                                         rotation)
    else:
        passes = measure(cli, cases, paths, seconds, rotation)
        metrics = end_to_end(passes, setup_seconds)
    attempted = sum(len(p.case_seconds) for p in passes)
    failed = sum(p.failed_cases for p in passes)
    for case in cases:
        problems.extend(f"case {case.index}: {p}"
                        for p in workloads.check_multiplicities(lib, case))

    digest, digest_problems = report_digest(passes)
    problems.extend(digest_problems)
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "rotated_to_the_end": rotation.rotating,
        "digest": digest,
        "pass_rates": [p.rate for p in passes],
        "case_seconds": [p.case_seconds for p in passes],
        "setup_seconds": setup_seconds,
        "problems": problems + [f for p in passes for f in p.failures],
    }
    with open(os.path.join(WORK, f"result-{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**summary, "metrics": metrics}, fh, indent=2)
        fh.write("\n")

    print(f"{workload} seed={seed} trace={trace}: {attempted} cases in"
          f" {len(passes)} passes, report digest {summary['digest']}")
    for problem in summary["problems"][:20]:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':42s} {failed / attempted:.6g} ratio")
    return {
        "correct": not summary["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with code {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
