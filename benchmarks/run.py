"""lingopt benchmark: one workload per process, as a closed loop.

    python3 benchmarks/run.py --workload case-study --seed 1 --seconds 10 --trace 0

One client, one query in flight, no think time.  The workload's inputs are
made from ``--seed``; every output is checked (outside the timed region) and
accuracy is compared with a reference run at N = 100001 after the loop.
Times are wall times scaled to a reference host speed (``hostspeed.py``);
the raw wall times are printed too and kept in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the queries and prints per-layer metrics,
each per query of the traced passes, except ``codebook.parse.ms`` and
``problems.parse.ms``, which are per set-up.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A record of
the run (environment, metrics, report digests and, when traced, the spans of
the set-up and first queries) is written to ``benchmarks/out/``.
"""

import os

# numpy links a threaded OpenBLAS; the LWA's matrix products must not fan out
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import setup_child  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
GROUP_S = 0.05  # host speed can flip within a pass, so rescale this often
MAX_LOGGED_ERRORS = 20


def measure_setup(workload: str, inputs: dict) -> tuple[float, float]:
    """Seconds a fresh interpreter spends importing lingopt and loading the
    inputs, as (raw, host-speed scale)."""
    before = hostspeed.kernel_s()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), workload],
        input=json.dumps(inputs), capture_output=True, text=True, timeout=120, check=True,
    )
    scale = hostspeed.scale(before, hostspeed.kernel_s())
    return float(done.stdout.strip().splitlines()[-1]), scale


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            sha = done.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def call(wl, query):
    """(result, None), or (None, traceback) if the query raised."""
    try:
        return wl.run(query), None
    except Exception:  # a failing query is counted, not fatal
        return None, traceback.format_exc(limit=3)


def timed_loop(wl, seconds: float, tracer, after_pass):
    """Cycle over the workload's queries until they have run for ``seconds``.

    Only time inside queries counts towards ``seconds``, not the output
    checks or ``after_pass``, which gets that elapsed share after each pass.
    The host-speed kernel runs before a pass and after every ``GROUP_S`` of
    queries, and each group's times are scaled by the kernels around it.
    Untraced and traced passes alternate when a tracer is given, and the loop
    ends after a traced pass.  Returns (untraced passes as (raw, scaled)
    latencies, traced latencies scaled, failure messages), in seconds.
    """
    passes, traced_lat, failures = [], [], []
    gc.collect()
    busy, rounds = 0.0, 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        results, lat, scaled, group = [], [], [], []
        kernel = hostspeed.kernel_s()
        if traced:
            tracer.install()
        for i, query in enumerate(wl.queries):
            if traced:
                tracer.begin(rounds * len(wl.queries) + i)
            start = time.perf_counter()
            result, error = call(wl, query)
            group.append(tracer.end() if traced else time.perf_counter() - start)
            results.append((query, result, error))
            if sum(group) >= GROUP_S or i == len(wl.queries) - 1:
                after = hostspeed.kernel_s()
                factor = hostspeed.scale(kernel, after)
                lat += group
                scaled += [x * factor for x in group]
                kernel, group = after, []
        if traced:
            tracer.uninstall()
            tracer.fold(sum(scaled) / sum(lat))
            traced_lat += scaled
        else:
            passes.append((lat, scaled))
        busy += sum(lat)
        for query, result, error in results:
            error = error or wl.check(query, result)
            if error:
                failures.append(error)
        after_pass(busy / seconds)
        rounds += 1
        if busy >= seconds and (tracer is None or rounds % 2 == 0):
            return passes, traced_lat, failures


def timings(passes, setups) -> dict:
    """Query percentiles, throughput and set-up time, scaled to the reference
    host speed and as raw wall time."""
    out = {}
    for kind, column in (("scaled", 1), ("raw", 0)):
        lat = [x for p in passes for x in p[column]]
        setup = [t * (s if kind == "scaled" else 1.0) for t, s in setups]
        out[kind] = {
            "query_ms_p50": (statistics.median(lat) * 1e3, "ms"),
            "query_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "queries_per_s": (len(lat) / sum(lat), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
        }
    return out


# layers reported with per-query call counts, and with per-query inclusive ms
CALLS = ["fuzzy.membership_grid", "similarity.jaccard", "reasoning.fire", "codebook.word",
         "reasoning.lwa", "reasoning.synthesize", "similarity.centroid", "reasoning.decode",
         "codebook.load", "tsukamoto.crisp_output"]
TIMES = ["fuzzy.membership_grid", "similarity.jaccard", "reasoning.fire", "reasoning.lwa",
         "reasoning.synthesize", "similarity.centroid", "reasoning.decode", "codebook.load",
         "problems.solve_pr", "problems.solve_two_tuple", "codebook.sample", "tsukamoto.optimize",
         "tsukamoto.crisp_output", "similarity.rank"]


def per_layer(tracer, plain, traced, word_err) -> dict:
    """Per-query layer metrics of the traced passes; absent layers are left out."""
    q = tracer.queries
    out = {}
    present = tracer.present

    def put(name, layer, value, unit):
        if layer in present:
            out[name] = (value, unit)

    for layer in CALLS:
        put(f"{layer}.calls", layer, tracer.calls[layer] / q, "count")
    for layer in TIMES:
        put(f"{layer}.ms", layer, tracer.total_s[layer] * 1e3 / q, "ms")
    grid_calls = tracer.calls["fuzzy.membership_grid"]
    put("fuzzy.membership_grid.samples", "fuzzy.membership_grid", tracer.samples / q, "count")
    put("fuzzy.membership_grid.distinct_frac", "fuzzy.membership_grid",
        tracer.distinct / grid_calls if grid_calls else 0.0, "ratio")
    fires = tracer.calls["reasoning.fire"]
    put("reasoning.fire.nonzero_frac", "reasoning.fire", tracer.fired / fires if fires else 0.0, "ratio")
    put("codebook.parse.ms", "codebook.parse", tracer.setup_s["codebook.parse"] * 1e3, "ms")
    put("problems.parse.ms", "problems.parse", tracer.setup_s["problems.parse"] * 1e3, "ms")
    put("cli.self.ms", "cli", tracer.self_s["cli"] * 1e3 / q, "ms")
    out["similarity.jaccard.err_max"] = (word_err[0], "similarity")
    out["similarity.centroid.err_max"] = (word_err[1], "scale-units")
    out["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return out


def layer_table(tracer) -> dict:
    """Inclusive and self ms per query for every span name, for the record."""
    q = tracer.queries
    return {
        name: {"calls": tracer.calls[name] / q, "ms": tracer.total_s[name] * 1e3 / q,
               "self_ms": tracer.self_s[name] * 1e3 / q}
        for name in sorted(tracer.calls, key=lambda n: -tracer.total_s[n])
        if tracer.calls[name]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "lingopt" / "__init__.py").is_file():
        print(f"benchmark: no lingopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    hostspeed.kernel_s()  # first-call costs are not host speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # kernel and queries share a core

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.seed, ROOT)
    setup_times = []

    def measure_setups(share: float) -> None:
        # spread the fresh-process set-ups over the run, so that a few seconds
        # of a faster or slower host do not move all of them together
        while len(setup_times) < SETUP_REPEATS and share >= len(setup_times) / SETUP_REPEATS:
            setup_times.append(measure_setup(args.workload, wl.inputs))

    tracer = Tracer() if args.trace else None
    if tracer:
        before = hostspeed.kernel_s()
        tracer.install()
    state = setup_child.setup(args.workload, wl.inputs)
    if tracer:
        tracer.uninstall()
        tracer.fold(hostspeed.scale(before, hostspeed.kernel_s()))
    wl.prepare(state)

    errors = []
    for query in wl.queries:  # warm-up pass: untimed, but checked
        result, error = call(wl, query)
        error = error or wl.check(query, result)
        if error:
            errors.append(f"warm-up: {error}")
    passes, traced, failures = timed_loop(wl, args.seconds, tracer, measure_setups)
    plain = [x for _, scaled in passes for x in scaled]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the reference pass
    errors += failures
    try:
        errors += wl.finish()
        ref = wl.reference()
    except Exception:  # the program failed outside a query: report, do not crash
        ref = workloads.Reference(float("nan"), 0, 1, [traceback.format_exc(limit=3)])
    errors += ref.errors
    times = timings(passes, setup_times)
    metrics = {
        **times["scaled"],
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "centroid_err_max": (ref.centroid_err_max, "scale-units"),
        "answer_agree_frac": (ref.agree / ref.compared, "ratio"),
    }
    attempted = len(plain) + len(traced)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setups": setup_times,
              "raw": {k: v for k, (v, _) in times["raw"].items()},
              "host_scale": statistics.median(sum(s) / sum(r) for r, s in passes),
              "queries": len(plain), "failed_frac": len(failures) / attempted,
              "errors": errors[:MAX_LOGGED_ERRORS], "digests": getattr(wl, "digests", {})}
    if tracer:
        metrics = per_layer(tracer, plain, traced, workloads.word_errors(wl.codebooks()))
        record["layers"] = record_layers = layer_table(tracer)
        origin = tracer.kept[0][1] if tracer.kept else 0.0
        record["spans"] = [(n, s - origin, e - origin, p, qid) for n, s, e, p, qid in tracer.kept]
        record["absent_layers"] = sorted(set(LAYERS) - tracer.present)
        for name, row in record_layers.items():
            print(f"# {name:26s} calls {row['calls']:9.1f}  ms {row['ms']:9.3f}  self {row['self_ms']:9.3f}")
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for error in errors[:MAX_LOGGED_ERRORS]:
        print(f"# error: {error.strip()}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(plain)} timed queries, failed_frac "
          f"{record['failed_frac']:.4g}; python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, git {env['git_sha']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:38s} {value:.6g} {unit}")
    print("# raw wall time, host-speed scale %.3f: " % record["host_scale"]
          + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
