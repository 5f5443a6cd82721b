"""Run one benchmark workload against the mrk sources beside this directory.

    python3 bench/run.py --workload links-w1 --seed 0 --seconds 42 --trace 0

Untraced (``--trace 0``): set up the workload's inputs several times, then
repeat its timed operation until ``--seconds`` is used up, check every
operation's outputs, and print the end-to-end metrics.  Traced
(``--trace 1``): set up once and run the first operation twice, untraced
and then with a span around every call into the mrk layers, and print the
per-layer metrics.  The last line of standard output is always one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON record of the machine, the operations and the trace.

``--update-reference`` runs every distinct operation of the workload at
``--seed``, prints how the outputs differ from the committed reference, and
rewrites it.  No other run writes the reference.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
LOAD_AT_START = os.getloadavg()

# One client, one thread: numpy's BLAS must not start more threads than that.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import traceback

import outputs
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
REFERENCE_DIR = os.path.join(BENCH, "reference")
SETUP_REPEATS = 3


def machine_facts(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": list(LOAD_AT_START),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    return ap.parse_args(argv)


def fresh_import_seconds() -> float:
    """Time to import numpy and mrk in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import numpy, mrk.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def check_op(wl, state, i, out, reference, log):
    """Check one operation's outputs; returns (OpResult, error list)."""
    res = wl.check(state, i, out)
    errors = list(res.errors)
    expected = reference.get(res.key)
    if expected is not None:
        errors += [f"reference {d}" for d in outputs.compare(expected, res.summary)]
    for e in errors[:5]:
        print(f"{wl.name} op {i} ({res.key}): {e}", file=sys.stderr)
    log.append({"key": res.key, "checked_against_reference": expected is not None,
                "errors": errors[:20]})
    return res, errors


def run_untraced(wl, args, workdir, reference):
    import_times = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    durations, aucs, log = [], [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        call = wl.op(state, i)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:
            durations.append(time.perf_counter() - t0)
            failed += 1
            log.append({"op": i, "raised": traceback.format_exc(limit=5)})
            print(traceback.format_exc(), file=sys.stderr)
        else:
            durations.append(time.perf_counter() - t0)
            res, errors = check_op(wl, state, i, out, reference, log)
            log[-1]["seconds"] = durations[-1]
            failed += bool(errors)
            aucs.extend(res.aucs)
        # Drop this operation's outputs so they do not inflate the next
        # operation's peak RSS.
        call = out = None
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > args.seconds:
            break

    metrics = {
        "wall_s": (statistics.median(durations), "s"),
        "setup_s": (
            statistics.median(import_times) + statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "auc_mean": (statistics.fmean(aucs) if aucs else 0.0, "AUC"),
    }
    record = {
        "fresh_import_s": import_times,
        "setup_runs_s": setup_times,
        "op_seconds": durations, "failed_frac": failed / i, "ops": log,
    }
    return i, failed, metrics, record


def run_traced(wl, args, workdir, reference):
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.span("bench.setup"):
            state = wl.setup(args.seed, workdir)
    finally:
        tr.uninstall()

    log = []
    failed = 0
    call = wl.op(state, 0)
    t0 = time.perf_counter()
    out = call()
    plain_s = time.perf_counter() - t0
    failed += bool(check_op(wl, state, 0, out, reference, log)[1])
    out = None

    tr.op = 0
    call = wl.op(state, 0)
    tr.install()
    try:
        t0 = time.perf_counter()
        with tr.span("bench.op"):
            out = call()
        traced_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    failed += bool(check_op(wl, state, 0, out, reference, log)[1])

    shares = {k: v / traced_s for k, v in sorted(tr.layer_self(op=0).items())}
    purpose = wl.purpose(shares)
    nesting = tr.nesting_errors()
    for msg in purpose:
        print(f"{wl.name}: purpose not met: {msg}", file=sys.stderr)
    for msg in nesting[:5]:
        print(f"{wl.name}: trace: {msg}", file=sys.stderr)
    metrics = {}
    for name, value in tr.metrics().items():
        unit = "s" if name.endswith("_s") else (
            "ratio" if name.endswith("_frac") else "count")
        metrics[name] = (value, unit)
    t_base = tr.spans[0].start if tr.spans else 0.0
    record = {
        "untraced_op_s": plain_s, "traced_op_s": traced_s,
        "trace_overhead_s": traced_s - plain_s,
        "layer_share": shares, "purpose_failures": purpose,
        "nesting_errors": nesting[:20], "ops": log,
        "spans": [[s.name, s.start - t_base, s.end - t_base, s.parent, s.op]
                  for s in tr.spans],
    }
    return 2, failed, metrics, record


def update_reference(wl, args, workdir, path):
    state = wl.setup(args.seed, workdir)
    new = {}
    bad = 0
    for i in range(wl.n_ops):
        res = wl.check(state, i, wl.op(state, i)())
        for e in res.errors:
            print(f"op {i} ({res.key}): {e}", file=sys.stderr)
        bad += bool(res.errors)
        new[res.key] = res.summary
    if bad:
        print(f"{bad} operation(s) failed their checks; reference not written",
              file=sys.stderr)
        return 1
    refs = outputs.load_reference(path)
    old = refs.get(str(args.seed), {})
    diffs = outputs.compare(old, new)
    for d in diffs:
        print(f"changed {d}")
    print(f"{path}: seed {args.seed}: {len(diffs)} change(s)")
    refs[str(args.seed)] = new
    outputs.save_reference(path, refs)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mrk", "__init__.py")):
        print(f"error: no mrk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import mrk

    if os.path.dirname(os.path.dirname(os.path.abspath(mrk.__file__))) != SRC:
        print(f"error: imported mrk from {mrk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ref_path = os.path.join(REFERENCE_DIR, f"{wl.name}.json")
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=os.path.join(BENCH, ".work"))
    try:
        if args.update_reference:
            return update_reference(wl, args, workdir, ref_path)
        reference = outputs.load_reference(ref_path).get(str(args.seed), {})
        runner = run_traced if args.trace else run_untraced
        attempted, failed, metrics, record = runner(wl, args, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(np.__version__),
        "import_s": import_s, **record,
    }
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    out_path = os.path.join(
        BENCH, "out", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    brief = {k: v for k, v in record.items() if k not in ("spans", "ops")}
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value!r} {unit}")
    print(json.dumps(brief))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
