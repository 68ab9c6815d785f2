#!/usr/bin/env python3
"""pblab benchmark: run one workload, check every result, print its metrics.

    python3 perfbench/run.py --workload {suite,operators,polynomial,all} \\
        --seed N --seconds S --trace {0,1}

``--workload all`` runs the three workloads one after another, each in its
own process, prefixes their lines with the workload name and ends with one
JSON object whose metric names are ``<workload>.<metric>``.

Run it from the root of a checkout that holds ``src/pblab``; without that
directory it exits with code 2 and prints no result.  The loop is closed:
one caller in one process runs one pass after another.  BLAS threads are
fixed at 1 (at most nproc) before numpy is imported, and the count is
recorded.

Pass times are CPU seconds of this process (``time.process_time``).  With
one busy thread that is the elapsed time minus the time the machine gave
the CPU to others.  On a shared 2-vCPU virtual machine, over ten runs per
workload, the interquartile spread of ``pass_s`` was 0.04-0.09 of its
median in CPU time against 0.08-0.12 in wall time.  The wall time of every
pass is recorded next to it.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

- ``setup_s``: median over 5 fresh processes of the time from process start
  until pblab is imported and the workload inputs are built;
- ``cold_pass_s``: CPU time of the first pass of this process, which every
  ``pblab`` invocation pays;
- ``pass_s``: median CPU time of the warm passes run until ``--seconds``
  (wall time) is spent;
- ``check_failed_share``: failed checks over attempted checks, all passes;
- ``peak_rss_mb``: peak resident memory of this process (``ru_maxrss``).

``--trace 1`` alternates untraced and traced warm passes and reports the
per-layer metrics from the spans of the traced ones (see ``LAYER_METRICS``).

Every metric is printed as ``metric <name> = <value> <unit>``.  The last
line of stdout is one JSON object: ``attempted`` counts check evaluations,
``failed`` counts those whose call into pblab raised, and ``correct`` is
false if a call raised or a check failed that ``workloads.KNOWN_FAILURES``
does not list.  A check whose call completed with a deviation above its
tolerance, or not finite, is a red verdict: it is counted in
``check_failed_share`` and printed, never dropped.  The environment, the
checks and the metrics are also written to ``perfbench/out/``, and with
``--trace 1`` every span too.
"""

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (BLAS threads must be fixed before numpy loads)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
WORKLOADS = ("suite", "operators", "polynomial")

# Per-layer metrics: (name, unit, better, kind, span or count name).
# ``busy``: median over traced passes of the total time in that span name;
# ``calls``: spans of that name per pass; ``count``: a per-pass count;
# ``share``: a count summed over calls, divided by the calls of the span the
# count belongs to (its name minus the last part).
LAYER_METRICS = (
    [(f"acceptance.c{k:02d}.busy_s", "s", "lower", "busy", f"acceptance.c{k:02d}")
     for k in range(1, 12)]
    + [(f"acceptance.c{k:02d}.failed", "count", "lower", "count", f"acceptance.c{k:02d}.failed")
       for k in range(1, 12)]
    + [
        ("gl2.rep_full.busy_s", "s", "lower", "busy", "gl2.rep_full"),
        ("gl2.rep_full.calls", "count", "lower", "calls", "gl2.rep_full"),
        ("gl2.rep_block.busy_s", "s", "lower", "busy", "gl2.rep_block"),
        ("fock.pseudo_pair.busy_s", "s", "lower", "busy", "fock.pseudo_pair"),
        ("fock.metric_operators.busy_s", "s", "lower", "busy", "fock.metric_operators"),
        ("fock.check.busy_s", "s", "lower", "busy", "fock.check"),
        ("fock.dense_bytes_computed", "bytes", "lower", "count", "fock.dense_bytes_computed"),
        ("displacement.canonical_displacement.busy_s", "s", "lower", "busy",
         "displacement.canonical_displacement"),
        ("displacement.canonical_displacement.nonfinite", "count", "lower", "count",
         "displacement.canonical_displacement.nonfinite"),
        ("displacement.bicoherent.busy_s", "s", "lower", "busy", "displacement.bicoherent"),
        ("displacement.bicoherent.used_share", "ratio", "higher", "share",
         "displacement.bicoherent.used_share"),
        ("hermite.hermite_coeffs.busy_s", "s", "lower", "busy", "hermite.hermite_coeffs"),
        ("hermite.hermite_terms_exact.busy_s", "s", "lower", "busy", "hermite.hermite_terms_exact"),
        ("hermite.inner.busy_s", "s", "lower", "busy", "hermite.inner"),
        ("hermite.inner.calls", "count", "lower", "calls", "hermite.inner"),
        ("hermite.inner_exact.busy_s", "s", "lower", "busy", "hermite.inner_exact"),
        ("deformed.biorth_gram.busy_s", "s", "lower", "busy", "deformed.biorth_gram"),
        ("deformed.biorth_gram.block_share", "ratio", "higher", "share",
         "deformed.biorth_gram.block_share"),
        ("deformed.deformed_coeffs.busy_s", "s", "lower", "busy", "deformed.deformed_coeffs"),
        ("deformed.deformed_via_rep.busy_s", "s", "lower", "busy", "deformed.deformed_via_rep"),
        ("deformed.norm_sq.busy_s", "s", "lower", "busy", "deformed.norm_sq"),
        ("deformed.norm_sq_inner.busy_s", "s", "lower", "busy", "deformed.norm_sq_inner"),
        # self time of the pass root: benchmark glue and program work no span covers
        ("trace.pass_self_s", "s", "lower", "self", "pass"),
    ]
)
# Structural counts, computed from call arguments and returned shapes.
COMPUTED = ("fock.dense_bytes_computed", "displacement.canonical_displacement.nonfinite",
            "displacement.bicoherent.used_share", "deformed.biorth_gram.block_share")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "loop": "closed, one caller, one process",
    }


def setup_times(workload, seed):
    """Time fresh processes from start until pblab and the inputs are ready."""
    times = []
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def timed_pass(workloads, workload, inputs, tr, pass_id, runs, kind):
    """Run one pass; record its CPU and wall seconds under ``kind``."""
    tr.pass_id = pass_id
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with tr.span("pass"):
        checks = workloads.run_pass(workload, inputs, tr, pass_id)
    runs[kind].append(time.process_time() - cpu0)
    runs[f"{kind}_wall"].append(time.perf_counter() - wall0)
    return checks


def measure(workloads, spans, workload, inputs, seconds, trace):
    """Cold pass, then warm passes until ``seconds`` is spent.  With tracing,
    warm passes alternate untraced / traced, at least one of each.  Returns
    the pass times by kind, the checks of every pass (indexed by pass id),
    the tracer and the ids of the traced passes."""
    null = spans.NullTracer()
    tracer = spans.Tracer() if trace else None
    runs = {f"{kind}{suffix}": [] for kind in ("cold", "warm", "traced")
            for suffix in ("", "_wall")}
    start = time.perf_counter()
    all_checks = [timed_pass(workloads, workload, inputs, null, 0, runs, "cold")]
    traced_ids = []
    while True:
        use_trace = trace and len(runs["traced"]) < len(runs["warm"])
        pass_id = len(all_checks)
        all_checks.append(timed_pass(workloads, workload, inputs,
                                     tracer if use_trace else null, pass_id, runs,
                                     "traced" if use_trace else "warm"))
        if use_trace:
            traced_ids.append(pass_id)
        enough = runs["warm"] and (not trace or runs["traced"])
        if enough and time.perf_counter() - start >= seconds:
            return runs, all_checks, tracer, traced_ids


def percentile_note(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return (f"n={n}; fewer than 20 samples, so no percentile from the median up "
                f"has ten samples beyond it (min {min(samples):.4f}, max {max(samples):.4f})")
    p = int(100 * (1 - 10 / n))
    value = statistics.quantiles(samples, n=100)[p - 1]
    return f"n={n}; p{p} {value:.4f} s"


def layer_metrics(tracer, traced_ids, runs):
    rows = list(tracer.per_pass(traced_ids).values())
    metrics = {}
    for name, unit, _better, kind, key in LAYER_METRICS:
        if kind == "share":
            span = key.rsplit(".", 1)[0]
            value = statistics.median(
                row["count"].get(key, 0.0) / row["calls"][span] if row["calls"].get(span) else 0.0
                for row in rows
            )
        else:
            value = statistics.median(row[kind].get(key, 0) for row in rows)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(runs["traced"]) - statistics.median(runs["warm"]),
        "unit": "s",
    }
    return metrics


def run_all(args):
    """Every workload in its own process, so that the cold pass and the peak
    memory stay per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               check=True).stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}", flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None, sizes=None):
    """Run one workload; ``sizes`` replaces the measured sizes (self-test)."""
    args = parse_args(argv)
    if not (SRC / "pblab" / "__init__.py").is_file():
        print(f"perfbench: no pblab sources at {SRC}; run from a pblab checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import workloads

    setup = [] if args.trace else setup_times(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed, sizes or workloads.FULL)
    env = environment(args.seed)
    print("environment " + json.dumps(env), flush=True)

    runs, all_checks, tracer, traced_ids = measure(workloads, spans, args.workload, inputs,
                                                   args.seconds, args.trace)

    known = workloads.KNOWN_FAILURES[args.workload]
    flat = [c for checks in all_checks for c in checks]
    attempted = len(flat)
    raised = sum(1 for c in flat if c.error)
    red = sum(1 for c in flat if c.failed)
    unexpected = sorted({c.name for c in flat if c.failed and c.name not in known})
    names_stable = all([c.name for c in checks] == [c.name for c in all_checks[0]]
                       for checks in all_checks)
    correct = raised == 0 and not unexpected and names_stable
    print("checks of pass 0 (the seed's first draw):")
    for c in all_checks[0]:
        print("  " + c.line(known=c.name in known))
    fail_counts = Counter(c.name for c in flat if c.failed)
    print(f"failed checks over {len(all_checks)} passes: "
          + (", ".join(f"{name} x{k}" for name, k in sorted(fail_counts.items())) or "none"))
    if unexpected:
        print("unexpected failures: " + ", ".join(unexpected))

    if args.trace:
        metrics = layer_metrics(tracer, traced_ids, runs)
        print(f"traced passes: {len(runs['traced'])}, untraced warm passes: {len(runs['warm'])}")
        print("computed from call arguments and returned shapes, not measured: "
              + ", ".join(COMPUTED))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cold_pass_s": {"value": runs["cold"][0], "unit": "s"},
            "pass_s": {"value": statistics.median(runs["warm"]), "unit": "s"},
            "check_failed_share": {"value": red / attempted, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        print(f"setup_s: median of {len(setup)} fresh processes")
        print("pass_s: " + percentile_note(runs["warm"]))
        print("wall seconds of the passes: cold {:.4f}, warm {}".format(
            runs["cold_wall"][0], ", ".join(f"{t:.4f}" for t in runs["warm_wall"])))
        print(f"check_failed_share: {red} of {attempted} check evaluations failed")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "args": vars(args),
        "pass_seconds": runs,
        "setup_seconds": setup,
        "checks": [[dict(vars(c), failed=c.failed, known=c.name in known) for c in checks]
                   for checks in all_checks],
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"), {"environment": env, "args": vars(args)})

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": raised,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
