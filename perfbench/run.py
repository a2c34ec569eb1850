"""Benchmark for the ``dips`` package: Monte-Carlo replication throughput of
three studies and the release time of ``dips synth``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sim1-truncate --seed 1 \
        --seconds 16 --trace 0

The program is imported from ``src/`` of the checkout.  A run sets up
(import, inputs, one untimed warm-up), then runs whole cycles in a closed
loop until ``--seconds`` of wall time have passed, checks every output,
and prints the metrics; its last stdout line is one JSON object.  Times
are reported in reference seconds (see ``speed.py``).  With ``--trace 1``
it replays the same cycles with every layer boundary wrapped (see
``tracing.py``) and prints the per-layer metrics instead.  Any failed
check exits with status 1.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))
from perfbench.speed import SpeedSampler  # noqa: E402

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SETUP_TRIALS = 3


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit from the benchmark's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def result_of(metrics: dict, section: str, attempted: int, failed: int):
    units = declared_units(section)
    if set(metrics) != set(units):
        raise RuntimeError(f"{section} metrics {sorted(metrics)} differ "
                           f"from BENCHMARK.json {sorted(units)}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def cap_blas_threads() -> int:
    """Cap every BLAS/OpenMP pool at the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def timed_loop(wl, sampler, seconds: float, indices=None):
    """Whole rounds of cycles until their wall time reaches ``seconds`` (or
    the given cycle indices).  Returns [(index, seconds, reference seconds,
    digest, [(pair index, seconds)])] and the pooled tally."""
    tally = wl.new_tally()
    cycles = []
    total = 0.0
    with wl.boundary_clock():
        for i in itertools.count() if indices is None else indices:
            if indices is None and cycles and total >= seconds and \
                    len(cycles) % wl.round_size == 0:
                break
            (t0, t1), digest, payload, reps = wl.run_cycle(i)
            wl.check_cycle(tally, payload, i)
            cycles.append((i, t1 - t0, sampler.scaled(t0, t1), digest,
                           reps))
            total += t1 - t0
    return cycles, tally


def print_replication_table(wl, cycles):
    """Per (eps, method) wall time per replication, with sample counts;
    p90 only where at least ten samples lie beyond it."""
    for k, pair in enumerate(wl.pairs):
        times = [t * 1e3 for c in cycles for j, t in c[4] if j == k]
        label = " ".join(f"{p:.6g}" if isinstance(p, float) else str(p)
                         for p in pair)
        line = (f"  rep_ms {label}: n={len(times)} "
                f"p50={statistics.median(times):.3f}")
        if len(times) >= 100:
            line += f" p90={quantile(times, 0.9):.3f}"
        print(line)


def layer_metrics(summary, reps, scale):
    """Per-layer metrics from a tracer summary; ``scale`` converts wall
    time of the traced pass to reference time."""
    by = summary["by_name"]
    ms, us = 1e3 * scale, 1e6 * scale

    def total(name):
        return by.get(name, {}).get("total_s", 0.0)

    def own(name):
        return by.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return by.get(name, {}).get("calls", 0)

    def per(x, d):
        return x / d if d else 0.0

    wall = summary["wall_s"]
    releases = calls("modips_release")
    exc = summary["exceptions"]
    charge = "ledger.charge"
    return {
        "budget.charge.calls_per_rep": per(calls(charge), reps),
        "budget.charge.us_per_call": us * per(total(charge), calls(charge)),
        "budget.charge.share_pct": 100 * per(total(charge), wall),
        "sanitize.ms_per_rep": ms * per(own("modips_release"), reps),
        "sanitize.laplace_values_per_entry": per(
            summary["laplace_values"], summary["entries_sanitized"]),
        "sanitize.share_pct": 100 * per(own("modips_release"), wall),
        "posterior_draw.ms_per_release": ms * per(total("posterior_draw"),
                                                   releases),
        "posterior_draw.share_pct": 100 * per(total("posterior_draw"), wall),
        "predictive_draw.ms_per_release": ms * per(total("predictive_draw"),
                                                    releases),
        "sufficient_statistics.ms_per_release": ms * per(
            total("sufficient_statistics"), releases),
        "sufficient_statistics.calls_per_release": per(
            calls("sufficient_statistics"), releases),
        "inv_wishart.ms_per_call": ms * per(total("sample_inv_wishart"),
                                             calls("sample_inv_wishart")),
        "inv_wishart.calls_per_rep": per(calls("sample_inv_wishart"), reps),
        "perturb_histogram.self_ms_per_rep": ms * per(
            own("perturb_histogram"), reps),
        "sample_from_histogram.self_ms_per_rep": ms * per(
            own("sample_from_histogram"), reps),
        "build_histogram.self_ms_per_rep": ms * per(own("build_histogram"),
                                                     reps),
        "hist_synth.share_pct": 100 * per(summary["hist_synth_s"], wall),
        "all_cells_zero.per_rep": per(exc.get("all_cells_zero", 0), reps),
        "exc.NonConvergence_mechanisms.per_rep": per(
            exc.get("exc.NonConvergence_mechanisms", 0), reps),
        "exc.NonConvergence_inference.per_rep": per(
            exc.get("exc.NonConvergence_inference", 0), reps),
        "exc.DegenerateEstimate.per_rep": per(
            exc.get("exc.DegenerateEstimate", 0), reps),
        "exc.LinAlgError.per_rep": per(exc.get("exc.LinAlgError", 0), reps),
        "analyze.ms_per_rep": ms * per(summary["analyze_s"], reps),
        "combine.ms_per_rep": ms * per(total("combine"), reps),
        "to_csv.ms_per_rep": ms * per(total("to_csv"), reps),
        "to_csv.share_pct": 100 * per(total("to_csv"), wall),
        "cli.self_ms_per_rep": ms * per(own("cli.main"), reps),
        "simulate_truth.ms_per_rep": ms * per(total("simulate_truth"), reps),
        "run_study.self_ms_per_rep": ms * per(own("run_study"), reps),
        "trace.spans_per_rep": per(summary["spans"], reps),
    }


def run(args, sampler) -> tuple[dict, list[str]]:
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dips
    import dips.cli
    import dips.harness
    import_s = sampler.scaled(t0, time.perf_counter())
    import numpy
    import scipy

    from perfbench import tracing, workloads

    if Path(dips.__file__).resolve().parent != SRC / "dips":
        raise RuntimeError(f"imported dips from {dips.__file__}, not {SRC}")
    print(f"env: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {nproc}, BLAS threads "
          f"{os.environ['OPENBLAS_NUM_THREADS']}")
    reference = workloads.load_reference(Path(__file__).with_name(
        "reference.json"))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    wl = workloads.make_workload(args.workload, args.seed, dips)
    atexit.register(wl.cleanup)
    problems = []

    # -- set-up: import, inputs, one warm-up ---------------------------------
    input_s = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        wl.prepare(workdir)
        input_s.append(sampler.scaled(t0, time.perf_counter()))
    t0 = time.perf_counter()
    warm_digest = wl.digest_of(0)
    warm_s = sampler.scaled(t0, time.perf_counter())
    setup_s = import_s + statistics.median(input_s) + warm_s
    print(f"setup (reference s): import {import_s:.4f}, inputs "
          f"{statistics.median(input_s):.4f} (median of {SETUP_TRIALS}), "
          f"warm-up {warm_s:.4f}")

    # -- untraced closed loop ------------------------------------------------
    t0 = time.perf_counter()
    cycles, tally = timed_loop(wl, sampler, args.seconds)
    kernel_s = sampler.kernel_s(t0, time.perf_counter())
    if cycles[0][3] != warm_digest:
        problems.append("same seed gave a different digest than the warm-up")
    # the same configuration under the next cycle's seed
    r = wl.round_size
    other = cycles[r][3] if len(cycles) > r else wl.digest_of(r)
    if other == warm_digest:
        problems.append("another seed gave the same digest")
    problems += wl.final_checks(tally, reference)
    wall = sum(c[1] for c in cycles)
    scaled = sum(c[2] for c in cycles)
    run_digest = workloads.sha256_of(c[3].encode() for c in cycles)
    print(f"digest {run_digest} over {len(cycles)} cycles")
    print_replication_table(wl, cycles)
    print(f"cycles: {wall:.4f} s wall = {scaled:.4f} reference s; speed "
          f"kernel mean {kernel_s * 1e6:.2f} us (reference "
          f"{sampler.reference_s * 1e6:g} us); wall-clock reps_per_s "
          f"{tally.reps / wall:.6g}")

    if not args.trace:
        import resource
        metrics = {
            "setup_s": setup_s,
            "reps_per_s": tally.reps / scaled,
            "usable_frac": tally.usable_fraction(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result = result_of(metrics, "end_to_end", tally.reps, tally.failed)
        for name, m in result["metrics"].items():
            n = SETUP_TRIALS if name == "setup_s" else tally.reps
            print(f"  {name} = {m['value']:.6g} {m['unit']} (n={n})")
        return result, problems

    # -- traced replay of the same cycles ------------------------------------
    tracer = tracing.Tracer()
    missing = tracer.install()
    for name in missing:
        print(f"  boundary not found, not traced: {name}")
    t0 = time.perf_counter()
    try:
        traced, traced_tally = timed_loop(wl, sampler, 0,
                                          [c[0] for c in cycles])
    finally:
        tracer.uninstall()
    scale = sampler.reference_s / sampler.kernel_s(t0, time.perf_counter())
    if [c[3] for c in traced] != [c[3] for c in cycles]:
        problems.append("traced run changed the metric-row digest")
    summary = tracer.summary()
    reps = traced_tally.reps
    if args.workload in workloads.STUDIES and \
            summary["by_name"].get("simulate_truth", {}).get("calls") != reps:
        problems.append("replication boundaries do not match replications")
    traced_scaled = sum(c[2] for c in traced)
    metrics = layer_metrics(summary, reps, scale)
    metrics["trace.overhead_pct"] = 100 * (traced_scaled - scaled) / scaled
    metrics["machine.kernel_us"] = 1e6 * kernel_s
    metrics["unusable_frac"] = 1 - traced_tally.usable_fraction()
    for key, value in summary["crossings"].items():
        print(f"  exception crossing {key}: {value}")
    trace_path = ROOT / ".perfbench" / \
        f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    print(f"spans: {summary['spans']} written to "
          f"{trace_path.relative_to(ROOT)}; traced {traced_scaled:.4f} vs "
          f"untraced {scaled:.4f} reference s over {reps} replications")
    result = result_of(metrics, "per_layer", reps, traced_tally.failed)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dips" / "__init__.py").is_file():
        print(f"error: no dips package under {SRC}", file=sys.stderr)
        return 2
    sampler = SpeedSampler()
    sampler.start()
    try:
        result, problems = run(args, sampler)
    finally:
        sampler.stop()
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, **result}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
