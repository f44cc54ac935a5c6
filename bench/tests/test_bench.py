"""Tests of the benchmark itself: generators, verdict checks and tracing.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest

import interlacekit as lib
import interlacekit.cli as cli
import run
import tracing
import workloads

BENCHMARK_JSON = os.path.join(os.path.dirname(run.SRC), "BENCHMARK.json")
SEED = 3


def small_cases(workload, seed=SEED):
    """The cheapest slice of a pool that still has every case kind."""
    cases = workloads.generate(lib, workload, seed)
    smallest = min(c.size for c in cases)
    return [c for c in cases if c.size <= smallest + 1]


def traced_pass(workload, tmp_path):
    cases = small_cases(workload)
    paths = workloads.write_cases(cases, str(tmp_path / workload))
    tracer = tracing.Tracer()
    with tracer:
        result = run.run_pass(cli, cases, paths, tracer)
    assert not result.failures
    return tracer, tracing.layer_metrics(
        tracer.calls, tracer.counts, tracer.self_ns,
        len(cases), len(cases), result.report_bytes,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload):
    first = workloads.generate(lib, workload, SEED)
    again = workloads.generate(lib, workload, SEED)
    other = workloads.generate(lib, workload, SEED + 1)
    assert first == again
    assert [c.doc for c in first] != [c.doc for c in other]
    assert [c.size for c in first] == [c.size for c in other]
    assert first[0].size == min(c.size for c in first)


def test_pools_follow_the_documented_mix():
    cauchy = workloads.generate(lib, "cauchy-int", SEED)
    assert sorted({c.size for c in cauchy}) == list(range(4, 13))
    pencil = workloads.generate(lib, "pencil-mixed", SEED)
    kinds = {(c.size, c.kind) for c in pencil}
    assert len(kinds) == len(pencil) == 9 * 3
    degenerate = workloads.generate(lib, "degenerate-rational", SEED)
    for case in degenerate:
        entries = [Fraction(x) for row in case.doc["entries"] for cell in row for x in cell]
        assert any(e.denominator != 1 for e in entries)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_verdicts_hold_on_a_small_seed(workload, tmp_path):
    cases = small_cases(workload)
    paths = workloads.write_cases(cases, str(tmp_path))
    for case, path in zip(cases, paths):
        _, outputs = run.run_case(cli, case, path)
        problems, bodies = run.check_outputs(case, outputs)
        assert problems == [] and len(bodies) == len(case.modes)
        assert workloads.check_multiplicities(lib, case) == []


def test_checks_catch_a_wrong_verdict(tmp_path):
    cases = [c for c in small_cases("pencil-mixed") if c.kind == "violation"]
    case = cases[0]
    paths = workloads.write_cases([case], str(tmp_path))
    _, outputs = run.run_case(cli, case, paths[0])
    mode, code, out, err = outputs[0]
    report = json.loads(out)
    report["suites"]["pencil"]["trials"][0]["report"]["interlace"]["verdict"] = "Interlaces"
    tampered = [(mode, code, json.dumps(report), err)]
    problems, _ = run.check_outputs(case, tampered)
    assert problems == ["pencil: verdict Interlaces"]


def test_last_pass_stops_at_the_deadline(tmp_path, monkeypatch):
    cases = small_cases("cauchy-int")
    paths = workloads.write_cases(cases, str(tmp_path))
    monkeypatch.setattr(run, "MIN_CASES", len(run.CPUS) * len(cases) + 1)
    stay = SimpleNamespace(step=nullcontext)
    passes = run.measure(cli, cases, paths, 0, stay)
    assert [len(p.case_seconds) for p in passes] == [len(cases)] * len(run.CPUS) + [1]
    best = run.best_case_seconds(passes)
    assert len(best) == len(cases)
    assert best[0] == min(p.case_seconds[0] for p in passes)
    digest, problems = run.report_digest(passes)
    assert problems == [] and len(digest) == 64


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    for workload in workloads.WORKLOADS:
        _, metrics = traced_pass(workload, tmp_path)
        assert set(metrics) | {"trace.overhead_ratio"} == declared


def test_predicted_idle_layers_read_zero_calls(tmp_path):
    _, pencil = traced_pass("pencil-mixed", tmp_path)
    assert pencil["hermitian.char_poly.calls"][0] == 0
    assert pencil["realroots.refine_to.calls"][0] == 0
    assert pencil["realroots.is_real_rooted.calls"][0] == 91
    _, cauchy = traced_pass("cauchy-int", tmp_path)
    assert cauchy["realroots.is_real_rooted.calls"][0] == 0
    assert cauchy["realroots.refine_to.halvings"][0] > 0
    _, degenerate = traced_pass("degenerate-rational", tmp_path)
    assert degenerate["interlace.interlaces_by_roots.ties"][0] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first, _ = traced_pass(workload, tmp_path)
    second, _ = traced_pass(workload, tmp_path)
    assert first.calls == second.calls
    assert first.counts == second.counts


def test_spans_nest_and_carry_case_sizes(tmp_path):
    tracer, _ = traced_pass("cauchy-int", tmp_path)
    by_id = {span[1]: span for span in tracer.spans}
    roots = [s for s in tracer.spans if s[3] == "case"]
    assert len(roots) == len(tracer.case_attrs)
    assert all("n" in attrs for attrs in tracer.case_attrs.values())
    for case, span_id, parent, name, start, end in tracer.spans:
        assert start <= end
        if name != "case":
            up = by_id[parent]
            assert up[0] == case and up[4] <= start and end <= up[5]
    out = tmp_path / "trace.json"
    tracer.write(str(out), SEED)
    assert len(json.loads(out.read_text())["spans"]) == len(tracer.spans)


def test_tracer_restores_the_original_functions(tmp_path):
    before = [(mod, key, getattr(mod, key)) for mod, key, _ in tracing.binding_sites()]
    assert {key for _, key, _ in before} >= {"cauchy_check", "is_real_rooted", "SturmChain"}
    tracer = tracing.Tracer()
    with tracer:
        assert all(getattr(mod, key) is not obj for mod, key, obj in before)
    assert all(getattr(mod, key) is obj for mod, key, obj in before)
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("leave the block early")
    assert all(getattr(mod, key) is obj for mod, key, obj in before)


def test_halvings_follow_bisection_depth():
    assert tracing._halvings((0, 1), (Fraction(1, 4), Fraction(1, 2))) == 2
    assert tracing._halvings((0, 1), (Fraction(3, 8), Fraction(3, 8))) == 3
    assert tracing._halvings((2, 2), (2, 2)) == 0


def test_run_fails_without_the_package_sources(tmp_path):
    bench_dir = os.path.dirname(os.path.abspath(run.__file__))
    shutil.copytree(bench_dir, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cauchy-int",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
