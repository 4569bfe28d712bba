"""Benchmark of tbaudit: one workload at one seed, in one process.

    python3 perfbench/run.py --workload chains-sparse --seed 1 \
        [--seconds 15] [--trace 0|1] [--record-answers]

Run from anywhere; the program under test is ``src/tbaudit`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the provenance record.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from a traced pass
that follows an untraced pass over the same ops.  See README.md.
"""

from __future__ import annotations

import os

# One thread of numerical code, as the tool itself runs with --threads 1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import percentiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ANSWERS = HERE / "answers.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
SETUP_REPS = 3
RECONCILE_TOLERANCE_S = 1e-6
# The benchmark's own part of an op (redirecting output, writing a report
# file) is tens to hundreds of microseconds; more means untraced work.
MAX_BENCH_SHARE = 0.05
WORKLOAD_NAMES = ("chains-sparse", "chains-dense", "audit", "groups")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="the run length the caller asks for; recorded only, "
                        "as the op counts are fixed (see README.md)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-answers", action="store_true",
                   help="store this run's answer digests as the reference")
    return p.parse_args(argv)


def _import_program():
    """Import tbaudit from src/ of this checkout, nowhere else."""
    if not (SRC / "tbaudit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'tbaudit'} "
                         f"is missing")
    sys.path.insert(0, str(SRC))
    import tbaudit
    if Path(tbaudit.__file__).resolve().parent != SRC / "tbaudit":
        raise SystemExit(f"perfbench: imported tbaudit from {tbaudit.__file__}, "
                         f"not from {SRC}")


# ---------------------------------------------------------------------------
# Provenance.


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tbaudit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, ops) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "ops_per_class": dict(Counter(op.cls for op in ops)),
    }


# ---------------------------------------------------------------------------
# Passes.


def warm_up(workload, ops) -> None:
    for op in ops:
        try:
            workload.run(op)
        except Exception:  # the timed op on this class will count it
            traceback.print_exc(file=sys.stderr)


def timed_pass(workload, ops, tracer=None):
    """Run every op once, closed loop.  Returns (per-op (seconds, outcome or
    error text), pass seconds, op traces)."""
    clock = time.perf_counter
    results, traces = [], []
    gc.collect()
    start = clock()
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.index)
        t0 = clock()
        try:
            outcome = workload.run(op)
        except Exception:  # an op failure is measured, not fatal
            outcome = traceback.format_exc(limit=4)
        dt = clock() - t0
        if tracer is not None:
            traces.append(tracer.end_op(dt))
        results.append((dt, outcome))
    return results, clock() - start, traces


def check_pass(workload, ops, results, seed, expected):
    """(answer digests, failure messages per op index)."""
    import workloads
    digests, failures = [], {}
    for op, (_, outcome) in zip(ops, results):
        digest, problems = workloads.check_op(workload, op, outcome, seed)
        if expected is not None and (op.index >= len(expected)
                                     or digest != expected[op.index]):
            problems.append("answers differ from the digest recorded for "
                            "this seed")
        digests.append(digest)
        if problems:
            failures[op.index] = problems
    return digests, failures


def _round_table_cache() -> tuple[int, int]:
    """(hits, misses) of the round-table memo cache; (0, 0) without one."""
    import tbaudit.cipher
    info = getattr(getattr(tbaudit.cipher, "round_table", None),
                   "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def clear_caches() -> None:
    """Empty every memo cache of the program and of the input generators,
    back to a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name in ("tbaudit", "workloads") or name.startswith("tbaudit."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


# ---------------------------------------------------------------------------


def _load_answers(seed, workload):
    try:
        data = json.loads(ANSWERS.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return data.get(str(seed), {}).get(workload)


def _record_answers(seed, workload, digests) -> None:
    try:
        data = json.loads(ANSWERS.read_text())
    except (OSError, json.JSONDecodeError):
        data = {}
    data.setdefault(str(seed), {})[workload] = digests
    ANSWERS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(ops_ok, attempted, duration, times, setup_s,
                       peak_rss_kib) -> dict:
    _, tail_s, _ = percentiles.tail(times)
    return {
        "ops_per_s": _metric(ops_ok / duration, "1/s"),
        "op_s.p50": _metric(statistics.median(times), "s"),
        "op_s.tail": _metric(tail_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_kib / 1024, "MiB"),
        "ok_frac": _metric(ops_ok / attempted, "fraction"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import tracer as tracer_mod
    import workloads
    import_s = time.perf_counter() - T_START

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            clear_caches()  # every set-up as cold as the first
            t0 = time.perf_counter()
            ops = workloads.make_ops(workload, args.seed, workload.n_ops,
                                     work / f"set{rep}")
            warm = workloads.make_warmup_ops(workload, rep, work / f"set{rep}")
            warm_up(workload, warm)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        results, duration, _ = timed_pass(workload, ops)
        # before any check runs, so that the checks' memory does not count
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = [dt for dt, _ in results]
        traces = []
        if args.trace:
            clear_caches()
            warm_up(workload, warm)
            info0 = _round_table_cache()
            tracer = tracer_mod.Tracer()
            tracer.install()
            try:
                traced, _, traces = timed_pass(workload, ops, tracer)
            finally:
                tracer.uninstall()
            info1 = _round_table_cache()
            untraced_results, results = results, traced

        t_check = time.perf_counter()
        expected = None if args.record_answers else _load_answers(
            args.seed, args.workload)
        digests, failures = check_pass(workload, ops, results, args.seed,
                                       expected)
        if args.trace:
            plain, _ = check_pass(workload, ops, untraced_results, args.seed,
                                  None)
            for i, (a, b) in enumerate(zip(plain, digests)):
                if a != b:
                    failures.setdefault(i, []).append(
                        "traced and untraced passes answer differently")
            for tr in traces:
                for problem in tr.reconcile(MAX_BENCH_SHARE,
                                            RECONCILE_TOLERANCE_S):
                    failures.setdefault(tr.op_id, []).append(
                        "trace does not reconcile: " + problem)
        check_s = time.perf_counter() - t_check
        if args.record_answers and not failures:
            _record_answers(args.seed, args.workload, digests)

        attempted = len(ops)
        failed = len(failures)
        prov = provenance(args, ops)
        p_tail, tail_s, beyond = percentiles.tail(times)
        prov.update({
            "ops": attempted, "failed_ops": failed,
            "failed_frac": failed / attempted,
            "op_s.tail": {"percentile": p_tail, "samples": len(times),
                          "beyond": beyond},
            "setup_reps_s": setup_times, "import_s": import_s,
            "timed_pass_s": duration, "check_s": check_s,
        })
        if args.trace:
            overhead = (statistics.median(dt for dt, _ in results)
                        / statistics.median(times))
            layer = tracer_mod.per_layer_metrics(
                traces, (info1[0] - info0[0], info1[1] - info0[1]), overhead)
            prov.update({"trace_missing": tracer.missing,
                         "trace_count_errors": tracer.count_errors})
            metrics = {k: _metric(v, u) for k, (v, u) in layer.items()}
            _write_trace(args, prov, ops, traces, tracer.spans)
        else:
            metrics = end_to_end_metrics(attempted - failed, attempted,
                                         duration, times, setup_s,
                                         peak_rss_kib)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for i in sorted(failures)[:5]:
        print(f"perfbench: op {i} ({ops[i].cls}) failed: "
              + "; ".join(failures[i]), file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _write_trace(args, prov, ops, traces, spans) -> None:
    """Spans and per-op aggregates of the traced pass, for later analysis."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    doc = {
        "provenance": prov,
        "ops": [{"op": tr.op_id, "class": ops[tr.op_id].cls,
                 "wall_s": tr.wall_s, "bench_s": tr.bench_s,
                 "subspaces_scanned": tr.subspaces_scanned,
                 "stats": {k: dict(zip(("calls", "total_s", "self_s",
                                        "count"), v))
                           for k, v in tr.stats.items()}}
                for tr in traces],
        "spans": [dict(zip(("op", "span", "parent", "name", "start", "end"), s))
                  for s in spans],
    }
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
