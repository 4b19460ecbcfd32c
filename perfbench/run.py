"""hexwr benchmark: one workload, one seed, a closed loop with a single client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count-mixed --seed 1 --seconds 15 --trace 0

One process sends each request only after the previous one has returned.
Requests go through the public surface in-process (mostly ``hexwr.cli.main``
with ``--format json``), and every answer is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, p50 and p90 latency, throughput, the share of requests answered
correctly and peak memory.  The timed loop runs for ``--seconds`` of request
time and at least ``MIN_REQUESTS`` requests, so that at least ten samples
lie beyond p90.

``--trace 1`` is the separate traced run for the per-layer metrics.  It runs
a fixed number of requests, set by the workload and ``--seconds``, twice on
the same inputs: untraced, then traced after clearing the survey cache.  The
ratio of the two loop times is ``trace.overhead_ratio``; work counts repeat
exactly for the same seed.  Spans go to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means every request
was answered correctly, 1 that some were not, 2 a usage error or a checkout
without ``src/hexwr``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("count-mixed", "snr-rank", "pair-tree")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("enumeration.list_representations.calls", "count", "lower", "count-mixed p90, throughput"),
    ("enumeration.list_representations.busy_s", "s", "lower", "count-mixed p90, throughput"),
    ("enumeration.decompose_k.calls", "count", "lower", "count-mixed p90, throughput"),
    ("enumeration.decompose_k.busy_s", "s", "lower", "count-mixed p90, throughput"),
    ("enumeration.wr_survey.calls", "count", "lower", "snr-rank p50, throughput"),
    ("enumeration.wr_survey.busy_s", "s", "lower", "snr-rank p50, throughput"),
    ("enumeration.wr_survey.self_s", "s", "lower", "snr-rank p50, throughput"),
    ("enumeration.wr_survey.cache_hits", "count", "higher", "0 by design on every workload"),
    ("enumeration.wr_survey.cache_misses", "count", "lower", "snr-rank p50, throughput"),
    ("enumeration.hnf_scanned", "count", "lower", "snr-rank throughput"),
    ("enumeration.wr_hit_ratio", "ratio", "higher", "snr-rank throughput"),
    ("enumeration.IndexRepresentation.to_sublattice.calls", "count", "lower", "snr-rank p50"),
    ("enumeration.IndexRepresentation.to_sublattice.busy_s", "s", "lower", "snr-rank p50"),
    ("lattice.successive_minima.calls", "count", "lower", "snr-rank p50, throughput"),
    ("lattice.successive_minima.busy_s", "s", "lower", "snr-rank p50, throughput"),
    ("lattice.angle_data.calls", "count", "lower", "snr-rank p50, throughput"),
    ("lattice.angle_data.busy_s", "s", "lower", "snr-rank p50, throughput"),
    ("lattice.lagrange_reduce.calls", "count", "lower", "snr-rank p50, throughput"),
    ("lattice.lagrange_reduce.busy_s", "s", "lower", "snr-rank p50, throughput"),
    ("optimizer.epstein_zeta.calls", "count", "lower", "snr-rank p50"),
    ("optimizer.epstein_zeta.busy_s", "s", "lower", "snr-rank p50"),
    ("optimizer.epstein_zeta.truncation_radius_max", "count", "lower", "snr-rank p50"),
    ("optimizer.epstein_zeta.rel_error_max", "ratio", "lower", "snr-rank p50"),
    ("optimizer.epstein_zeta.calls_per_class", "ratio", "lower", "snr-rank p50"),
    ("optimizer.rank_by_snr.self_s", "s", "lower", "snr-rank p50"),
    ("optimizer.max_min.calls", "count", "lower", "count-mixed p50"),
    ("optimizer.max_min.busy_s", "s", "lower", "count-mixed p50"),
    ("triples.generate_tree.calls", "count", "lower", "pair-tree p90"),
    ("triples.generate_tree.busy_s", "s", "lower", "pair-tree p90"),
    ("triples.generate_tree.nodes", "count", "lower", "pair-tree p90"),
    ("triples.apply_generator.calls", "count", "lower", "pair-tree p90"),
    ("conic.scaled_angle_solutions.calls", "count", "lower", "pair-tree p50, throughput"),
    ("conic.scaled_angle_solutions.busy_s", "s", "lower", "pair-tree p50, throughput"),
    ("conic.scaled_angle_solutions.yield_ratio", "ratio", "higher", "pair-tree p50, throughput"),
    ("conic.parameterize.calls", "count", "lower", "pair-tree p50, throughput"),
    ("cli.main.calls", "count", "lower", "pair-tree against count-mixed latency"),
    ("cli.main.self_s", "s", "lower", "pair-tree against count-mixed latency"),
    ("trace.requests", "count", "higher", "base of the traced counts"),
    ("trace.overhead_ratio", "ratio", "lower", "cost of tracing itself"),
)

# warm-up requests before the timed loop
WARMUP = {"count-mixed": 10, "snr-rank": 4, "pair-tree": 8}
# requests per --seconds in the traced run, about half of untraced throughput
TRACE_RATE = {"count-mixed": 8, "snr-rank": 3, "pair-tree": 5}

# fewest timed requests per untraced run: ten samples beyond p90
MIN_REQUESTS = 100

# fresh interpreters timed per untraced run, half before the timed loop and
# half after it, so that one slow moment of the host moves the median less
SETUP_REPEATS = 8
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from hexwr.cli import main; "
    "sys.exit(main(['count', '1', '--format', 'json']))"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import mpmath.libmp

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def setup_times(repeats: int) -> list[float]:
    """Wall times from spawning an interpreter to the answer of `hexwr count 1`.

    The first spawn of a checkout writes the bytecode caches, which a CLI user
    has after the first call too; call this once unmeasured before timing.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or json.loads(proc.stdout)["count"] != 1:
            raise RuntimeError(f"hexwr count 1 failed: {proc.stderr.strip()}")
    return times


class Pass:
    """Latencies, failures and survey-cache traffic of one series of requests."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0
        self.failures: list[str] = []
        self.cache_hits = 0
        self.cache_misses = 0


def run_requests(requests, workloads, tracer=None, seconds=None) -> Pass:
    """Send requests one at a time; time each call, then check its answer untimed.

    With ``seconds`` set, stop once that much request time has passed and at
    least ``MIN_REQUESTS`` were sent.
    """
    survey = workloads.enumeration.wr_survey
    res = Pass()
    for i, req in enumerate(requests):
        before = survey.cache_info()
        if tracer is not None:
            tracer.begin(i)
        start = time.perf_counter()
        try:
            result, error = workloads.execute(req), None
        except Exception as exc:  # a raising request is a failed request
            result, error = None, f"{req.kind} {req.args}: raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        after = survey.cache_info()
        res.latencies.append(elapsed)
        res.busy += elapsed
        res.cache_hits += after.hits - before.hits
        res.cache_misses += after.misses - before.misses
        error = error or workloads.check(req, result)
        if error:
            res.failures.append(error)
        if seconds is not None and res.busy >= seconds and len(res.latencies) >= MIN_REQUESTS:
            break
    return res


def end_to_end(timed: Pass, setup_s: float) -> dict[str, float]:
    n = len(timed.latencies)
    deciles = statistics.quantiles(timed.latencies, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * deciles[4],
        "latency_p90_ms": 1e3 * deciles[8],
        "throughput_rps": n / timed.busy,
        "ok_ratio": (n - len(timed.failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: Pass, plain: Pass) -> dict[str, float]:
    spans = tracer.span_totals()
    leaves = tracer.leaf_totals
    c = tracer.counters
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name, _unit, _better, _moves in PER_LAYER:
        head, _, quantity = name.rpartition(".")
        if head in leaves and quantity in ("calls", "busy_s"):
            out[name] = leaves[head][0 if quantity == "calls" else 1]
        elif quantity in ("calls", "busy_s", "self_s"):
            out[name] = spans.get(head, zero)[quantity]
    zeta_calls = spans.get("optimizer.epstein_zeta", zero)["calls"]
    out.update({
        "enumeration.wr_survey.cache_hits": traced.cache_hits,
        "enumeration.wr_survey.cache_misses": traced.cache_misses,
        "enumeration.hnf_scanned": c["hnf_scanned"],
        "enumeration.wr_hit_ratio": c["wr_members"] / c["hnf_scanned"] if c["hnf_scanned"] else 0.0,
        "optimizer.epstein_zeta.truncation_radius_max": c["zeta_radius_max"],
        "optimizer.epstein_zeta.rel_error_max": c["zeta_rel_error_max"],
        "optimizer.epstein_zeta.calls_per_class":
            zeta_calls / c["ranked_classes"] if c["ranked_classes"] else 0.0,
        "triples.generate_tree.nodes": c["tree_nodes"],
        "conic.scaled_angle_solutions.yield_ratio":
            c["sas_solutions"] / leaves["conic.parameterize"][0]
            if leaves["conic.parameterize"][0] else 0.0,
        "trace.requests": len(traced.latencies),
        "trace.overhead_ratio": traced.busy / plain.busy,
    })
    return {name: out[name] for name, _unit, _better, _moves in PER_LAYER}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hexwr" / "__init__.py").is_file():
        print(f"error: no hexwr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hexwr

    if not Path(hexwr.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hexwr from {hexwr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    env = environment()
    warm_up, stream = workloads.streams(args.workload, args.seed, WARMUP[args.workload])
    warm = run_requests(warm_up, workloads)
    failures = list(warm.failures)
    sent = len(warm.latencies)

    if args.trace:
        requests = list(islice(stream, max(1, round(args.seconds * TRACE_RATE[args.workload]))))
        gc.collect()
        plain = run_requests(requests, workloads)
        workloads.enumeration.wr_survey.cache_clear()
        tracer = tracing.Tracer()
        gc.collect()
        timed = run_requests(requests, workloads, tracer=tracer)
        failures += plain.failures
        sent += len(plain.latencies)
        metrics = per_layer(tracer, timed, plain)
        units = {name: unit for name, unit, _b, _m in PER_LAYER}
        expected_scan = sum(workloads.sigma(J) for J in tracer.surveyed)
        if metrics["enumeration.hnf_scanned"] != expected_scan:
            failures.append(f"HNF candidates scanned {metrics['enumeration.hnf_scanned']}"
                            f" != sum of sigma(J) = {expected_scan}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        setup_times(1)
        setup = setup_times(SETUP_REPEATS // 2)
        gc.collect()
        timed = run_requests(stream, workloads, seconds=args.seconds)
        setup += setup_times(SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = end_to_end(timed, statistics.median(setup))
        units = {name: unit for name, unit, _b in END_TO_END}
    hits = timed.cache_hits + (plain.cache_hits if args.trace else 0)
    if hits:
        failures.append(f"wr_survey cache hit {hits} times inside timed requests")
    failures += timed.failures

    samples = len(timed.latencies)
    attempted = sent + samples
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": samples, "attempted": attempted, "env": env,
              "metrics": metrics, "failures": failures}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {samples} timed requests "
          f"({attempted} with warm-up), {len(failures)} failed, "
          f"fail_ratio = {len(timed.failures) / samples} ratio")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
