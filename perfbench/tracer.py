"""Span tracing of tbaudit's public functions, installed from outside.

``Tracer.install`` replaces each target function by a timing wrapper in
every ``tbaudit`` module namespace that refers to it, so calls between
modules (``cli`` -> ``cipher.find_trapdoor_chains`` -> ``gf2.rref``) all pass
through the wrappers; ``uninstall`` puts the originals back.

Every wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it, so time spent in an unwrapped
helper counts to the nearest wrapped caller, and the self times of one
operation add up to the time its top-level calls took.  High-frequency
functions are aggregated per operation (count, total time, self time);
the others are also kept as individual spans (operation id, span id,
parent span id, name, start, end) for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    record: bool = False          # keep individual spans, not just totals
    count: Callable | None = None  # result -> int, summed per op

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


def _not_none(result) -> int:
    return result is not None


def _walls(result) -> int:
    return len(result.escape)


LAYERS = ("gf2", "sbox", "mixing", "cipher", "groups", "report", "specfile",
          "cli")

TARGETS = (
    Target("gf2", "bounded_image_span", count=_not_none),
    Target("gf2", "rref"),
    Target("gf2", "subspace_image"),
    Target("sbox", "ddt"),
    Target("sbox", "is_strongly_anti_invariant"),
    # no workload reaches it (only analyze-sbox does), so it has no metrics
    # of its own; wrapped so that a path that calls it counts to sbox
    Target("sbox", "analyze_sbox", record=True),
    Target("mixing", "is_strongly_proper", record=True),
    Target("mixing", "family_strongly_proper", record=True, count=_walls),
    Target("cipher", "round_table"),
    Target("cipher", "encryption_table"),
    Target("cipher", "partition_image", count=_not_none),
    Target("cipher", "find_trapdoor_chains", record=True, count=len),
    Target("cipher", "verify_chain"),
    Target("cipher", "chain_holds_under_key"),
    Target("cipher", "audit", record=True),
    Target("groups", "sample_ind_generators", record=True),
    Target("groups", "sample_round_generators", record=True),
    Target("groups", "invariant_linear_partition_search", record=True,
           count=len),
    Target("groups", "minimal_invariant_partitions", record=True),
    Target("groups", "is_primitive", record=True),
    Target("groups", "minimal_block"),
    Target("report", "audit_report", record=True),
    Target("report", "chains_report", record=True),
    Target("report", "verify_report", record=True),
    Target("report", "dumps_report", record=True, count=len),
    Target("specfile", "load_cipher", record=True),
    Target("specfile", "parse_cipher", record=True),
    Target("cli", "main", record=True),
)

SCAN_KERNEL = "gf2.bounded_image_span"
CHAIN_SEARCH = "cipher.find_trapdoor_chains"


@dataclass
class OpTrace:
    """What the tracer saw during one operation."""

    op_id: int
    wall_s: float
    traced_s: float  # summed duration of the op's top-level wrapped calls
    stats: dict = field(default_factory=dict)  # name -> [calls, total, self, count]
    subspaces_scanned: int = 0    # scan-kernel calls inside the chain search
    exhaustive_chains: int = 0    # chains returned by exhaustive-mode searches

    @property
    def bench_s(self) -> float:
        """Benchmark's own time: the op wall time no wrapped call covers."""
        return self.wall_s - self.traced_s

    def reconcile(self, max_bench_share: float,
                  tolerance_s: float) -> list[str]:
        """Problems with this op's accounting; empty when it reconciles.

        ``wall_s`` is timed by the caller around the whole op and
        ``traced_s`` by the wrappers, so the benchmark's own time between
        them must be non-negative and at most ``max_bench_share`` of the op:
        more means a call the wrappers miss, less a span counted twice.  The
        self times must also add up to ``traced_s``, as nested spans do.
        """
        problems = []
        if self.bench_s < -tolerance_s:
            problems.append(f"wrapped calls took {-self.bench_s:.3g} s more "
                            f"than the op")
        elif self.bench_s > max_bench_share * self.wall_s:
            problems.append(f"{self.bench_s:.3g} s of a {self.wall_s:.3g} s "
                            f"op is outside every wrapped call")
        gap = sum(s[2] for s in self.stats.values()) - self.traced_s
        if abs(gap) > tolerance_s:
            problems.append(f"self times miss the traced time by {gap:.3g} s")
        return problems


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._root = [0.0, None]       # [child seconds, span id]
        self._stack = [self._root]
        self._acc: dict[str, list] = {SCAN_KERNEL: [0, 0.0, 0.0, 0]}
        self._next_span = 0
        self._op_id: int | None = None
        self._installed: list = []
        self._scan_marks: list[int] = []
        self.spans: list[tuple] = []   # (op, span, parent, name, start, end)
        self.subspaces_scanned = 0
        self.exhaustive_chains = 0
        self.count_errors = 0
        self.missing: list[str] = []  # targets the program does not define

    # -- wrappers -----------------------------------------------------------

    def wrap(self, target: Target, fn: Callable) -> Callable:
        acc = self._acc.setdefault(target.name, [0, 0.0, 0.0, 0])
        if target.record:
            return self._recording_wrapper(target, fn, acc)
        return self._aggregate_wrapper(fn, acc, target.count)

    def _aggregate_wrapper(self, fn, acc, count):
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
            if count is not None:
                try:  # inline, not self._count: this path is the hot one
                    acc[3] += count(result)
                except Exception:
                    self.count_errors += 1
            return result

        return wrapper

    def _count(self, count, result) -> int:
        """count(result); a result of another shape than expected is noted
        in ``count_errors``, never raised into the program."""
        try:
            return count(result)
        except Exception:
            self.count_errors += 1
            return 0

    def _recording_wrapper(self, target: Target, fn, acc):
        stack, clock, name = self._stack, self.clock, target.name
        count = target.count
        is_search = name == CHAIN_SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            span = self._next_span
            self._next_span += 1
            frame = [0.0, span]
            if is_search:
                self._scan_marks.append(self._acc[SCAN_KERNEL][0])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                self.spans.append((self._op_id, span, parent, name, t0, t1))
                if is_search:
                    self.subspaces_scanned += (self._acc[SCAN_KERNEL][0]
                                               - self._scan_marks.pop())
            if count is not None:
                acc[3] += self._count(count, result)
            if is_search:
                mode = args[1] if len(args) > 1 else kwargs.get("mode",
                                                                "walls")
                if mode == "exhaustive":
                    self.exhaustive_chains += self._count(len, result)
            return result

        return wrapper

    # -- operations ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._root[0] = 0.0
        for acc in self._acc.values():
            acc[:] = [0, 0.0, 0.0, 0]
        self.subspaces_scanned = 0
        self.exhaustive_chains = 0

    def end_op(self, wall_s: float) -> OpTrace:
        stats = {name: list(acc) for name, acc in self._acc.items() if acc[0]}
        trace = OpTrace(self._op_id, wall_s, self._root[0], stats,
                        self.subspaces_scanned, self.exhaustive_chains)
        self._op_id = None
        return trace

    # -- installation ----------------------------------------------------------

    def install(self, targets=TARGETS, package: str = "tbaudit") -> None:
        """Wrap every target the program defines; note the others in
        ``missing``, whose metrics then read 0."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for target in targets:
            try:
                mod = importlib.import_module(f"{package}.{target.module}")
            except ImportError:
                mod = None
            orig = getattr(mod, target.function, None)
            if not callable(orig):
                self.missing.append(target.name)
                continue
            wrapper = self.wrap(target, orig)
            for m in modules:
                names = [k for k, v in vars(m).items() if v is orig]
                for k in names:
                    setattr(m, k, wrapper)
                    self._installed.append((m, k, orig))

    def uninstall(self) -> None:
        while self._installed:
            m, k, orig = self._installed.pop()
            setattr(m, k, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics from the op traces.

# Functions that get their own .calls and .self_s metrics.
FUNCTION_METRICS = (
    "gf2.bounded_image_span", "gf2.rref", "gf2.subspace_image",
    "cipher.find_trapdoor_chains", "cipher.partition_image",
    "cipher.verify_chain", "cipher.chain_holds_under_key",
    "cipher.round_table", "cipher.encryption_table", "cipher.audit",
    "sbox.ddt", "sbox.is_strongly_anti_invariant",
    "mixing.is_strongly_proper", "mixing.family_strongly_proper",
    "groups.invariant_linear_partition_search", "groups.is_primitive",
    "groups.minimal_block", "report.audit_report", "report.chains_report",
    "report.verify_report", "report.dumps_report", "specfile.load_cipher",
    "cli.main",
)


def ratio(numerator: float, base: float) -> float:
    """numerator / base, or 0.0 when the base is 0 (nothing to measure)."""
    return numerator / base if base else 0.0


def per_layer_metrics(traces: list[OpTrace], round_table_cache: tuple[int, int],
                      trace_overhead: float) -> dict[str, tuple[float, str]]:
    """Per-op means of counts and self times, ratios over the whole pass.

    ``round_table_cache`` is (hits, misses) of the round-table cache over the
    traced pass.  Returns name -> (value, unit).
    """
    n = len(traces)
    totals: dict[str, list] = {}
    for tr in traces:
        for name, s in tr.stats.items():
            t = totals.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                t[i] += s[i]

    def total(name: str, i: int) -> float:
        return totals.get(name, [0, 0.0, 0.0, 0])[i]

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = [t.name for t in TARGETS if t.module == layer]
        out[f"{layer}.calls"] = (sum(total(x, 0) for x in names) / n, "count")
        out[f"{layer}.self_s"] = (sum(total(x, 2) for x in names) / n, "s")
    for name in FUNCTION_METRICS:
        out[f"{name}.calls"] = (total(name, 0) / n, "count")
        out[f"{name}.self_s"] = (total(name, 2) / n, "s")
    scanned = sum(tr.subspaces_scanned for tr in traces)
    exhaustive = sum(tr.exhaustive_chains for tr in traces)
    hits, misses = round_table_cache
    out.update({
        "bench.self_s": (sum(tr.bench_s for tr in traces) / n, "s"),
        "gf2.bounded_image_span.pass_ratio": (
            ratio(total(SCAN_KERNEL, 3), total(SCAN_KERNEL, 0)), "ratio"),
        "cipher.subspaces_scanned": (scanned / n, "count"),
        "cipher.chains_found": (total(CHAIN_SEARCH, 3) / n, "count"),
        "cipher.chain_yield": (ratio(exhaustive, scanned), "ratio"),
        "cipher.partition_image.linear_ratio": (
            ratio(total("cipher.partition_image", 3),
                  total("cipher.partition_image", 0)), "ratio"),
        "cipher.round_table.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "mixing.walls_checked": (
            total("mixing.family_strongly_proper", 3) / n, "count"),
        "groups.partitions_found": (
            total("groups.invariant_linear_partition_search", 3) / n,
            "count"),
        "report.dumps_report.bytes": (
            total("report.dumps_report", 3) / n, "bytes"),
        "trace_overhead": (trace_overhead, "ratio"),
    })
    return out
