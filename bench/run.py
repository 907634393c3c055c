"""Benchmark for arcurv's CLI: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload verify-witness --seed 1 --seconds 36 --trace 0

Each op calls ``arcurv.cli.main([...])`` in this process with stdout
captured, default flags and ``--format json``. The load is a closed loop
with one client: a pass runs the workload's op list once, in the order the
seed fixes, and passes repeat until ``--seconds`` would be exceeded (at
least three passes). Every op's output is checked by an independent oracle
outside the timed region. ``--trace 0`` reports end-to-end metrics; pass
and CPU times are given in units of a fixed reference loop that runs between
ops, each op divided by the mean unit just before and after it, so the host's
drifting speed cancels (see ``reference_unit``);
``--trace 1`` runs each op untraced and then traced, and reports per-layer
metrics from spans recorded around calls into arcurv's public functions.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details, provenance and (when
tracing) every span are written to ``bench/out/<workload>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy
import scipy

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3
# Half are taken before the passes and half after, so that a slow spell
# on the host at either end of the run moves the median less.
SETUP_SAMPLES = 8
# Reference-loop time run after each untraced op, as a share of the op's time.
REF_SHARE = 0.25
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import arcurv.cli; print(repr(time.perf_counter() - t))"
)

END_TO_END = {
    "setup_s": "s",
    "pass_rel": "ref",
    "cpu_rel": "ref",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span name, field); fields are per pass.
PER_LAYER = {
    "cli.main_s": ("s", "cli.main", "s"),
    "cli.self_s": ("s", "cli.main", "self_s"),
    "cli.ops": ("count", "cli.main", "calls"),
    "graph.load_s": ("s", "graph.load", "s"),
    "graph.detect_s": ("s", "graph.detect", "s"),
    "graph.detect_calls": ("count", "graph.detect", "calls"),
    "graph.girth_s": ("s", "graph.girth", "s"),
    "graph.diameter_s": ("s", "graph.diameter", "s"),
    "curvature.all_edges_s": ("s", "curvature.all_edges", "s"),
    "curvature.lly_calls": ("count", "curvature.lly", "calls"),
    "curvature.lly_s": ("s", "curvature.lly", "s"),
    "curvature.lly_self_s": ("s", "curvature.lly", "self_s"),
    "curvature.lly_per_edge": ("calls/edge", "curvature.lly", "per_edge"),
    "curvature.kappa_p_calls": ("count", "curvature.kappa_p", "calls"),
    "curvature.flow_calls": ("count", "curvature.flow", "calls"),
    "curvature.flow_s": ("s", "curvature.flow", "s"),
    "curvature.flow_ms_per_solve": ("ms", "curvature.flow", "ms_per_call"),
    "curvature.assign_calls": ("count", "curvature.assign", "calls"),
    "curvature.assign_s": ("s", "curvature.assign", "s"),
    "curvature.assign_ms_per_solve": ("ms", "curvature.assign", "ms_per_call"),
    "matching.konig_calls": ("count", "matching.konig", "calls"),
    "matching.konig_s": ("s", "matching.konig", "s"),
    "matching.konig_per_witness_edge": ("calls/edge", "matching.konig", "per_witness_edge"),
    "matching.through_edge_calls": ("count", "matching.through_edge", "calls"),
    "matching.through_edge_s": ("s", "matching.through_edge", "s"),
    "matching.dense_calls": ("count", "matching.dense", "calls"),
    "matching.dense_s": ("s", "matching.dense", "s"),
    "witness.bound_calls": ("count", "witness.bound", "calls"),
    "witness.bound_s": ("s", "witness.bound", "s"),
    "witness.bound_self_s": ("s", "witness.bound", "self_s"),
    "witness.build_calls": ("count", "witness.build", "calls"),
    "witness.build_s": ("s", "witness.build", "s"),
    "witness.lemma33_calls": ("count", "witness.lemma33", "calls"),
    "witness.lemma33_s": ("s", "witness.lemma33", "s"),
    "witness.dense_cert_calls": ("count", "witness.dense_cert", "calls"),
    "witness.dense_cert_s": ("s", "witness.dense_cert", "s"),
    "spectral.spectrum_calls": ("count", "spectral.spectrum", "calls"),
    "spectral.spectrum_s": ("s", "spectral.spectrum", "s"),
    "spectral.residual_max": ("norm", "spectral.spectrum", "value_max"),
    "report.verify_graph_s": ("s", "report.verify_graph", "s"),
    "report.self_s": ("s", "report.verify_graph", "self_s"),
    "report.render_s": ("s", "report.render", "s"),
    "search.search_s": ("s", "search.search", "s"),
    "search.self_s": ("s", "search.search", "self_s"),
    "search.leaves": ("count", "search.search", "leaves"),
    "trace.overhead_s": ("s", None, None),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(trace: list, lo: int, hi: int, ops) -> dict[str, float]:
    """Per-layer metrics over the spans ``trace[lo:hi]`` of ``ops``.

    ``ops`` are the ops those spans cover; their input sizes are the bases
    of the per-edge ratios. Ratios with an empty base read 0.
    """
    summary = spans.summarize(trace, lo, hi)
    verify_edges = sum(op.edges for op in ops if "verify" in op.argv)
    witness_edges = sum(op.witness_edges for op in ops)
    out: dict[str, float] = {}
    for metric, (_, name, field) in PER_LAYER.items():
        if name is None:
            continue
        row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "values": []})
        if field == "per_edge":
            value = _ratio(row["calls"], verify_edges)
        elif field == "per_witness_edge":
            value = _ratio(row["calls"], witness_edges)
        elif field == "ms_per_call":
            value = _ratio(1000.0 * row["s"], row["calls"])
        elif field == "value_max":
            value = max(row["values"], default=0.0)
        elif field == "leaves":
            value = spans.children_of(trace, name, "graph.detect", lo, hi)
        else:
            value = row[field]
        out[metric] = value
    return out


def reference_unit() -> Fraction:
    """A fixed piece of pure-Python work, 10 to 20 ms on a 2-vCPU Xeon VM.

    BFS from every 12th vertex of a fixed 4-regular circulant-like graph, and
    a Fraction sum over the distances: the same kind of interpreter work as
    arcurv's (dicts, lists, Fraction arithmetic), without calling arcurv. Its
    time tracks the host's speed only, so an op's time divided by it is in
    host-independent units.
    """
    n = 240
    adj = [((v - 1) % n, (v + 1) % n, (7 * v) % n, (13 * v + 5) % n) for v in range(n)]
    total = Fraction(0)
    for s in range(0, n, 12):
        dist = {s: 0}
        queue = [s]
        for x in queue:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        total += sum(Fraction(1, 1 + d) for d in dist.values())
    return total


REFERENCE_VALUE = Fraction(21347, 21)


def run_reference(seconds: float) -> dict:
    """Run whole reference units until ``seconds`` of wall time have passed (at least one)."""
    units, wall, cpu = 0, 0.0, 0.0
    while units == 0 or wall < seconds:
        c0, t0 = time.process_time(), time.perf_counter()
        value = reference_unit()
        t1, c1 = time.perf_counter(), time.process_time()
        if value != REFERENCE_VALUE:
            raise AssertionError(f"reference unit returned {value}, not {REFERENCE_VALUE}")
        units, wall, cpu = units + 1, wall + t1 - t0, cpu + c1 - c0
    return {"units": units, "wall": wall, "cpu": cpu}


def run_op(cli, op, tracer=None, ref_share: float = 0.0) -> dict:
    """Run one op in-process and check it; only the ``cli.main`` call is timed.

    With ``ref_share`` > 0, reference units run right after the op, for that
    share of the op's wall time, and their totals are returned as ``ref``.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    lo = len(tracer.spans) if tracer else 0
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            error = f"raised {exc!r}"
        t1, c1 = time.perf_counter(), time.process_time()
    ref = run_reference(ref_share * (t1 - t0)) if ref_share > 0 else None
    if error is None:
        try:
            error = op.check(out.getvalue(), rc, op.expected)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
        if error is not None and err.getvalue():
            error += f" (stderr: {err.getvalue().strip()[:200]})"
    hi = len(tracer.spans) if tracer else 0
    return {"wall": t1 - t0, "cpu": c1 - c0, "error": error, "spans": (lo, hi), "ref": ref}


def _pass(results: list[dict], elapsed: float) -> dict:
    out = {
        "wall": sum(r["wall"] for r in results),
        "cpu": sum(r["cpu"] for r in results),
        "elapsed": elapsed,
        "ops": results,
    }
    if all(r["ref"] for r in results):
        units = sum(r["ref"]["units"] for r in results)
        out["ref_wall"] = sum(r["ref"]["wall"] for r in results) / units
        out["rel_wall"] = sum(r["rel_wall"] for r in results)
        out["rel_cpu"] = sum(r["rel_cpu"] for r in results)
    return out


def _unit(before: dict | None, after: dict) -> dict:
    """Time of one reference unit around an op: the mean of the runs just before and after."""
    runs = [r for r in (before, after) if r]
    return {k: statistics.fmean(r[k] / r["units"] for r in runs) for k in ("wall", "cpu")}


def measure(cli, ops, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
    """Run passes until the next one would end after ``seconds``.

    Returns the untraced passes and, with a tracer, the traced ones. Without
    a tracer, reference units follow each op (``REF_SHARE``). When tracing,
    each op runs untraced and then traced, back to back, so host speed
    drifts cancel in the traced-minus-untraced overhead.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    before = None  # the reference run just before the next op
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        untraced_ops, traced_ops = [], []
        for index, op in enumerate(ops):
            result = run_op(cli, op, ref_share=0 if tracer else REF_SHARE)
            if result["ref"]:
                unit = _unit(before, result["ref"])
                result["rel_wall"] = result["wall"] / unit["wall"]
                result["rel_cpu"] = result["cpu"] / unit["cpu"]
                before = result["ref"]
            untraced_ops.append(result)
            if tracer is not None:
                tracer.op = index
                tracer.install()
                try:
                    traced_ops.append(run_op(cli, op, tracer))
                finally:
                    tracer.uninstall()
        elapsed = time.perf_counter() - p0
        plain.append(_pass(untraced_ops, elapsed))
        if tracer is not None:
            traced.append(_pass(traced_ops, elapsed))
        total = time.perf_counter() - start
        longest = max(p["elapsed"] for p in plain)
        if len(plain) >= (1 if tracer else MIN_PASSES) and total + longest > seconds:
            return plain, traced


def stats(values: list[float]) -> dict:
    """Median, quartiles and count; the tail percentile needs ten samples beyond it."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n}
    for pct in (99.9, 99.0, 90.0):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(values, n=1000)[int(pct * 10) - 1]
            break
    return out


def setup_samples(count: int) -> list[float]:
    """Wall time of ``import arcurv.cli`` in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc.__class__.__name__})"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "arcurv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _extra_os_threads():
    """OS threads beyond Python's own: numpy's BLAS helpers in this process."""
    try:
        return len(os.listdir("/proc/self/task")) - threading.active_count()
    except OSError:
        return None


def provenance(args) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_observed": _extra_os_threads(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


# Printed beside the end-to-end metrics but not reported in the JSON line:
# raw times follow the host's speed, which drifts by more than the bounds.
RAW = {"pass_s": "s", "cpu_s": "s", "ref_unit_ms": "ms"}


def op_median_sum(passes, key: str) -> float:
    """Each op's median of ``key`` over the passes, summed over the op list.

    One op slowed by a burst on the host moves its own median at most,
    so this is steadier than the median of whole-pass sums.
    """
    return sum(statistics.median(p["ops"][i][key] for p in passes)
               for i in range(len(passes[0]["ops"])))


def report_untraced(passes, setup, ops, failed: int) -> tuple[dict, list[str]]:
    samples = {
        "setup_s": setup,
        "pass_rel": [p["rel_wall"] for p in passes],
        "cpu_rel": [p["rel_cpu"] for p in passes],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "pass_s": [p["wall"] for p in passes],
        "cpu_s": [p["cpu"] for p in passes],
        "ref_unit_ms": [1000.0 * p["ref_wall"] for p in passes],
    }
    rows = {name: stats(v) for name, v in samples.items()}
    for name, key in (("pass_rel", "rel_wall"), ("cpu_rel", "rel_cpu")):
        rows[name]["median"] = op_median_sum(passes, key)
    lines = [f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3}  unit"]
    for name, unit in {**END_TO_END, **RAW}.items():
        r = rows[name]
        tail = "".join(f"  {k} {_fmt(v)}" for k, v in r.items() if k.startswith("p"))
        lines.append(f"{name:<16} {_fmt(r['median']):>10} {_fmt(r['q1']):>10} "
                     f"{_fmt(r['q3']):>10} {r['n']:>3}  {unit}{tail}")
    attempted = len(passes) * len(ops)
    lines.append(f"{'failed_ops_frac':<16} {_fmt(failed / attempted):>10} {'':>10} {'':>10} "
                 f"{attempted:>3}  ratio ({failed} of {attempted} ops)")
    lines.append(f"{'op':<34} {'median_s':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    for index, op in enumerate(ops):
        r = stats([p["ops"][index]["wall"] for p in passes])
        lines.append(f"{op.label:<34} {_fmt(r['median']):>10} {_fmt(r['q1']):>10} "
                     f"{_fmt(r['q3']):>10} {r['n']:>3}")
    return {name: rows[name]["median"] for name in END_TO_END}, lines


def report_traced(plain, traced, tracer, ops) -> tuple[dict, list[str], list[str]]:
    per_pass = []
    for p in traced:
        lo, hi = p["ops"][0]["spans"][0], p["ops"][-1]["spans"][1]
        per_pass.append(layer_values(tracer.spans, lo, hi, ops))
    notes = list(tracer.notes)
    values = {}
    for metric, (unit, _, field) in PER_LAYER.items():
        if metric == "trace.overhead_s":
            values[metric] = (statistics.median(p["wall"] for p in traced)
                              - statistics.median(p["wall"] for p in plain))
        elif unit in ("s", "ms"):
            values[metric] = statistics.median(v[metric] for v in per_pass)
        else:
            seen = {v[metric] for v in per_pass}
            if len(seen) > 1:
                notes.append(f"{metric} differs across traced passes: {sorted(seen)}")
            values[metric] = per_pass[0][metric]
    lines = [f"{'metric':<34} {'value':>12}  unit"]
    lines += [f"{m:<34} {_fmt(v):>12}  {PER_LAYER[m][0]}" for m, v in values.items()]
    lines.append(f"{'op (first traced pass)':<34} {'lly/edge':>9} {'konig/wedge':>11} "
                 f"{'spectra':>7} {'leaves':>7}")
    for index, op in enumerate(ops):
        lo, hi = traced[0]["ops"][index]["spans"]
        v = layer_values(tracer.spans, lo, hi, [op])
        lines.append(f"{op.label:<34} {_fmt(v['curvature.lly_per_edge']):>9} "
                     f"{_fmt(v['matching.konig_per_witness_edge']):>11} "
                     f"{v['spectral.spectrum_calls']:>7} {v['search.leaves']:>7}")
    return values, lines, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arcurv" / "cli.py").is_file():
        print(f"error: arcurv sources not found under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else setup_samples(SETUP_SAMPLES // 2)
    sys.path.insert(0, str(SRC))
    import arcurv.cli as cli
    from arcurv import generators

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported arcurv from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        ops = workloads.build_ops(args.workload, args.seed, generators, Path(workdir))
        tracer = spans.Tracer() if args.trace else None
        plain, traced = measure(cli, ops, args.seconds, tracer)
    if not args.trace:
        setup += setup_samples(SETUP_SAMPLES - len(setup))

    prov = provenance(args)
    passes = plain + traced
    results = [r for p in passes for r in p["ops"]]
    failures = [f"pass {i} {ops[j].label}: {r['error']}"
                for i, p in enumerate(passes) for j, r in enumerate(p["ops"]) if r["error"]]
    attempted, failed = len(results), len(failures)
    notes: list[str] = []
    if args.trace:
        values, lines, notes = report_traced(plain, traced, tracer, ops)
        units = {m: PER_LAYER[m][0] for m in values}
    else:
        values, lines = report_untraced(plain, setup, ops, failed)
        units = END_TO_END

    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# {args.workload}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(ops)} ops")
    for line in lines + [f"note: {n}" for n in notes] + [f"FAILED {f}" for f in failures[:20]]:
        print(line)
    detail = {
        "provenance": prov,
        "metrics": values,
        "passes": [{"traced": flag, "wall": p["wall"], "cpu": p["cpu"],
                    "rel_wall": p.get("rel_wall"), "rel_cpu": p.get("rel_cpu"),
                    "op_wall": [r["wall"] for r in p["ops"]],
                    "op_rel": [r.get("rel_wall") for r in p["ops"]]}
                   for flag, group in ((False, plain), (True, traced)) for p in group],
        "ops": [op.label for op in ops],
        "failures": failures,
        "notes": notes,
    }
    if tracer:
        detail["spans"] = tracer.spans
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
