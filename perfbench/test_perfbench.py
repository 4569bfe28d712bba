"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import percentiles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import OpTrace, Target, Tracer, per_layer_metrics, ratio  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# The tail rule.


@pytest.mark.parametrize("n, percentile", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, percentile):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    p, value, beyond = percentiles.tail(values)
    assert p == percentile
    assert beyond >= percentiles.MIN_BEYOND
    assert beyond == sum(v > value for v in values)
    higher = [q for q in percentiles.LADDER if q > p]
    if higher:
        _, next_beyond = percentiles.nearest_rank(sorted(values), higher[0])
        assert next_beyond < percentiles.MIN_BEYOND


def test_tail_names_nearest_rank_value():
    values = [float(v) for v in range(1, 41)]
    assert percentiles.tail(values) == (75.0, 30.0, 10)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        percentiles.tail([1.0] * 19)


# ---------------------------------------------------------------------------
# Spans and self times.


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _nested(tr: Tracer, clock: FakeClock):
    """outer(1s, inner, 2s, inner, 3s); inner(leaf, 5s); leaf(0.5s)."""
    def leaf():
        clock.advance(0.5)

    leaf = tr.wrap(Target("gf2", "leaf"), leaf)

    def inner():
        leaf()
        clock.advance(4.5)

    inner = tr.wrap(Target("cipher", "inner"), inner)

    def outer():
        clock.advance(1)
        inner()
        clock.advance(2)
        inner()
        clock.advance(3)

    return tr.wrap(Target("cli", "outer", record=True), outer)


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    outer = _nested(tr, clock)
    tr.begin_op(7)
    t0 = clock()
    clock.advance(0.25)  # benchmark's own work around the call
    outer()
    clock.advance(0.75)
    trace = tr.end_op(clock() - t0)
    assert trace.stats["cli.outer"] == [1, 16.0, 6.0, 0]
    assert trace.stats["cipher.inner"] == [2, 10.0, 9.0, 0]
    assert trace.stats["gf2.leaf"] == [2, 1.0, 1.0, 0]
    assert trace.traced_s == 16.0
    assert trace.bench_s == 1.0
    assert trace.reconcile(0.1, 1e-9) == []
    assert tr.spans == [(7, 0, None, "cli.outer", 0.25, 16.25)]


def test_failed_call_still_closes_its_span():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.advance(2)
        raise RuntimeError

    boom = tr.wrap(Target("gf2", "boom"), boom)

    def outer():
        clock.advance(1)
        with pytest.raises(RuntimeError):
            boom()

    outer = tr.wrap(Target("cipher", "outer"), outer)
    tr.begin_op(0)
    outer()
    trace = tr.end_op(3.0)
    assert trace.stats["gf2.boom"][:3] == [1, 2.0, 2.0]
    assert trace.stats["cipher.outer"][:3] == [1, 3.0, 1.0]
    assert trace.reconcile(0.0, 1e-9) == []


def test_begin_op_resets_per_op_aggregates():
    clock = FakeClock()
    tr = Tracer(clock)
    outer = _nested(tr, clock)
    tr.begin_op(0)
    outer()
    tr.end_op(16.0)
    tr.begin_op(1)
    trace = tr.end_op(0.5)
    assert trace.stats == {}
    assert trace.bench_s == 0.5


def test_install_patches_every_namespace_and_uninstall_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def kernel(x):
        return x + 1

    low.kernel = kernel
    high.kernel = kernel  # as after "from .low import kernel"
    high.entry = lambda x: high.kernel(x) * 2
    for name, mod in (("fakepkg", pkg), ("fakepkg.low", low),
                      ("fakepkg.high", high)):
        monkeypatch.setitem(sys.modules, name, mod)
    tr = Tracer()
    tr.install([Target("low", "kernel")], package="fakepkg")
    assert low.kernel is not kernel and high.kernel is low.kernel
    tr.begin_op(0)
    assert high.entry(1) == 4
    assert tr.end_op(1.0).stats["low.kernel"][0] == 1
    tr.uninstall()
    assert low.kernel is kernel and high.kernel is kernel


def test_missing_targets_and_odd_results_never_break_the_program(
        monkeypatch):
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    low.kernel = lambda x: x  # returns an int, which has no len()
    for name, mod in (("fakepkg", pkg), ("fakepkg.low", low)):
        monkeypatch.setitem(sys.modules, name, mod)
    tr = Tracer()
    tr.install([Target("low", "kernel", count=len),
                Target("low", "retired"), Target("gone", "kernel")],
               package="fakepkg")
    assert tr.missing == ["low.retired", "gone.kernel"]
    tr.begin_op(0)
    assert low.kernel(3) == 3
    assert tr.end_op(1.0).stats["low.kernel"][0] == 1
    assert tr.count_errors == 1
    tr.uninstall()


def test_reconcile_flags_time_outside_every_wrapped_call():
    stats = {"cli.main": [1, 0.9, 0.9, 0]}
    assert OpTrace(0, 1.0, 0.9, stats).reconcile(0.15, 1e-9) == []
    problems = OpTrace(0, 1.0, 0.9, stats).reconcile(0.05, 1e-9)
    assert len(problems) == 1 and "outside every wrapped call" in problems[0]


def test_reconcile_flags_spans_counted_twice():
    stats = {"cli.main": [1, 1.2, 1.2, 0]}
    problems = OpTrace(0, 1.0, 1.2, stats).reconcile(0.05, 1e-9)
    assert len(problems) == 1 and "more than the op" in problems[0]


def test_reconcile_flags_self_times_that_miss_the_traced_time():
    stats = {"cli.main": [1, 0.99, 0.5, 0], "gf2.rref": [3, 0.3, 0.3, 0]}
    problems = OpTrace(0, 1.0, 0.99, stats).reconcile(0.05, 1e-9)
    assert len(problems) == 1 and "self times miss" in problems[0]


# ---------------------------------------------------------------------------
# Ratios and their bases.


def test_ratio_of_empty_base_is_zero():
    assert ratio(0, 0) == 0.0
    assert ratio(3, 0) == 0.0
    assert ratio(1, 4) == 0.25


def _trace(op_id, stats, scanned=0, exhaustive=0, wall=1.0):
    traced = sum(s[2] for s in stats.values())
    return OpTrace(op_id, wall, traced, stats, scanned, exhaustive)


def test_per_layer_ratios_use_their_stated_bases():
    a = _trace(0, {"gf2.bounded_image_span": [6, 0.3, 0.3, 2],
                   "cipher.find_trapdoor_chains": [1, 0.5, 0.2, 3]},
               scanned=6, exhaustive=3)
    b = _trace(1, {"gf2.bounded_image_span": [2, 0.1, 0.1, 0],
                   "cipher.partition_image": [4, 0.1, 0.1, 1]},
               scanned=2)
    m = per_layer_metrics([a, b], (3, 1), 1.25)
    assert m["gf2.bounded_image_span.pass_ratio"] == (2 / 8, "ratio")
    assert m["cipher.chain_yield"] == (3 / 8, "ratio")
    assert m["cipher.partition_image.linear_ratio"] == (1 / 4, "ratio")
    assert m["cipher.round_table.hit_ratio"] == (0.75, "ratio")
    assert m["trace_overhead"] == (1.25, "ratio")
    # counts and self times are means per op
    assert m["gf2.bounded_image_span.calls"] == (4.0, "count")
    assert m["cipher.chains_found"] == (1.5, "count")
    assert m["gf2.self_s"][0] == pytest.approx(0.2)
    assert m["cipher.self_s"][0] == pytest.approx(0.15)
    assert m["bench.self_s"][0] == pytest.approx((0.5 + 0.8) / 2)


def test_per_layer_ratios_without_calls_are_zero():
    m = per_layer_metrics([_trace(0, {})], (0, 0), 1.0)
    for name in ("gf2.bounded_image_span.pass_ratio", "cipher.chain_yield",
                 "cipher.partition_image.linear_ratio",
                 "cipher.round_table.hit_ratio"):
        assert m[name][0] == 0.0


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints.


def test_benchmark_json_names_the_printed_metrics():
    m = per_layer_metrics([_trace(0, {})], (0, 0), 1.0)
    declared = {x["name"]: x["unit"] for x in BENCHMARK["per_layer"]}
    assert declared == {k: unit for k, (_, unit) in m.items()}
    e2e = run.end_to_end_metrics(ops_ok=9, attempted=10, duration=2.0,
                                 times=[0.1] * 40, setup_s=0.5,
                                 peak_rss_kib=2048)
    declared = {x["name"]: x["unit"] for x in BENCHMARK["end_to_end"]}
    assert declared == {k: v["unit"] for k, v in e2e.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)


def test_benchmark_json_fits_the_layer_list():
    names = {x["name"] for x in BENCHMARK["per_layer"]}
    for layer in tracer.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= names


# ---------------------------------------------------------------------------
# Workload inputs.


def test_inputs_depend_only_on_seed_and_index(tmp_path):
    import workloads
    wl = workloads.WORKLOADS["audit"]
    a = workloads.make_ops(wl, 5, 10, tmp_path / "a")
    b = workloads.make_ops(wl, 5, 15, tmp_path / "b")
    c = workloads.make_ops(wl, 6, 10, tmp_path / "c")
    assert [op.spec for op in a] == [op.spec for op in b[:len(a)]]
    assert [op.spec for op in a] != [op.spec for op in c]


@pytest.mark.parametrize("name", ["chains-sparse", "chains-dense", "audit",
                                  "groups"])
def test_schedule_is_fixed_with_fixed_sizes(name, tmp_path):
    import workloads
    wl = workloads.WORKLOADS[name]
    n = wl.n_ops
    assert n >= 40  # so that the tail rule names p75 or higher
    answers = json.loads((HERE / "answers.json").read_text())
    assert len(answers[str(run.DEFAULT_SEED)][name]) == n

    def sizes(seed):
        ops = workloads.make_ops(wl, seed, n, tmp_path / str(seed))
        return sorted((op.cls, len(op.spec["rounds"]), op.spec["layout"]["b"])
                      for op in ops)

    assert sizes(1) == sizes(2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
