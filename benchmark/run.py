"""attncert benchmark: one workload per process, run from the repository root.

    python3 benchmark/run.py --workload verify --seed 1 --seconds 20 --trace 0

The program is imported from ./src.  Set-up (building the inputs and one
warm-up item) runs SETUP_REPS times and reports the median.  The timed loop
then cycles over the workload's pool of inputs until `--seconds` have passed
and the pool has been covered once; quality figures come from that first
pass.  Every output is checked after the loop.  Times are scaled to a
nominal machine speed by the calibration probes around each item
(calibrate.py).

With --trace 1 every input runs twice, back to back: untraced, then with a
span wrapper at each layer boundary (see tracing.py).  The per-layer metrics
come from the first traced pass over the pool, and the outputs of the two
runs must be bit-identical.

Stdout: a header line, a details line, and last the result object
{"correct", "attempted", "failed", "metrics"}.  The same data, plus the
spans of a traced run, is written to .bench_out/ under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SCHEMA = "attncert-bench/1"
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
REFERENCE_SEED = 0
REFERENCE_SIZE = 3
# Fast-mode bounds must match the reference to this relative tolerance
# (absolute below magnitude 1).
REFERENCE_RTOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
TAIL_BEYOND = 10


@dataclass
class Attempt:
    index: int  # pool index
    latency_ns: int
    scale: float  # Calibration.scale around this item; 1.0 when not calibrated
    output: object
    error: str | None


def _git_commit() -> str:
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
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "attncert").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_package() -> str | None:
    """Import attncert from ./src with BLAS held to one thread; the problem, if any."""
    src = ROOT / "src"
    if not (src / "attncert" / "__init__.py").is_file():
        return f"no attncert sources under {src}"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # one process, no added threads
    sys.path.insert(0, str(src))
    import attncert

    if Path(attncert.__file__).resolve().parent != (src / "attncert").resolve():
        return f"attncert imported from {attncert.__file__}, not {src}"
    return None


def header(args, argv) -> dict:
    import numpy

    return {
        "schema": SCHEMA,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": list(argv),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def attempt(workload, pool, i: int, tracer=None) -> Attempt:
    """Run pool input i % len(pool) once; only the call into the package is timed."""
    item = pool[i % len(pool)]
    t0 = time.perf_counter_ns()
    try:
        raw = workload.run(item) if tracer is None else tracer.run_item(i, workload.run, item)
        error = None
    except Exception:  # a raising item is a failed item, not a failed run
        raw, error = None, traceback.format_exc(limit=3)
    t1 = time.perf_counter_ns()
    output = None
    if error is None:
        try:
            output = workload.collect(item, raw)
        except Exception:
            error = traceback.format_exc(limit=3)
    return Attempt(i % len(pool), t1 - t0, 1.0, output, error)


def run_pass(workload, pool, seconds: float, calib) -> list[Attempt]:
    """Cycle over the pool until `seconds` have passed and every input ran
    once, with a calibration probe before and after every item."""
    attempts = []
    start = time.perf_counter_ns()
    before = calib.sample()
    i = 0
    while i < len(pool) or time.perf_counter_ns() - start < seconds * 1e9:
        a = attempt(workload, pool, i)
        after = calib.sample()
        a.scale, before = calib.scale(before, after), after
        attempts.append(a)
        i += 1
    return attempts


def run_pairs(workload, pool, seconds: float, tracer) -> tuple[list[Attempt], list[Attempt]]:
    """Like run_pass, but run every input untraced and then traced, back to
    back, so that the two times see the same machine speed."""
    plain, traced = [], []
    start = time.perf_counter_ns()
    i = 0
    while i < len(pool) or time.perf_counter_ns() - start < seconds * 1e9:
        plain.append(attempt(workload, pool, i))
        with tracer.installed():
            traced.append(attempt(workload, pool, i, tracer))
        i += 1
    return plain, traced


def check_attempts(workload, pool, attempts, first: dict) -> list[str]:
    """Problems per failed attempt (one entry each).  `first` maps a pool
    index to the fingerprint every later output of that input must equal."""
    failures = []
    for a in attempts:
        if a.error is not None:
            failures.append(f"item {a.index}: raised: {a.error.strip().splitlines()[-1]}")
            continue
        try:
            problems = workload.check(pool[a.index], a.output)
            fp = workload.fingerprint(a.output)
        except Exception:  # malformed output
            failures.append(f"item {a.index}: check raised: {traceback.format_exc(limit=2).strip().splitlines()[-1]}")
            continue
        if first.setdefault(a.index, fp) != fp:
            problems.append(f"item {a.index}: output differs from the first run of this input")
        if problems:
            failures.append("; ".join(problems))
    return failures


def check_reference(workload) -> tuple[int, list[str]]:
    """Fast-mode bounds on the fixed reference inputs against reference.json."""
    expected = json.loads(REFERENCE_FILE.read_text())["workloads"][workload.name]
    items = workload.build(REFERENCE_SEED, size=REFERENCE_SIZE, tag="ref")
    failures = []
    for item, want in zip(items, expected):
        try:
            got = workload.reference_values(item)
        except Exception:
            failures.append(f"reference {item.index}: raised: {traceback.format_exc(limit=2).strip().splitlines()[-1]}")
            continue
        bad = len(got) != len(want) or any(abs(g - w) > REFERENCE_RTOL * max(1.0, abs(w)) for g, w in zip(got, want))
        if bad:
            failures.append(f"reference {item.index}: fast-mode bounds differ from reference.json")
    return len(items), failures


def latency_summary(latencies_ms) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND items above it."""
    lat = sorted(latencies_ms)
    n = len(lat)
    rank = max(0, n - TAIL_BEYOND - 1)
    return {
        "p50_ms": statistics.median(lat),
        "tail_ms": lat[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
        "items": n,
    }


def first_pass_quality(workload, pool, attempts) -> dict:
    """Quality figures over the first pass, each pool input once."""
    ok = [a for a in attempts[: len(pool)] if a.error is None]
    return workload.quality([pool[a.index] for a in ok], [a.output for a in ok]) if ok else {}


def setup(workload, seed: int, calib):
    """Build the pool, then run one warm-up item on a fixed input so that the
    work does not depend on the seed; SETUP_REPS times, each between two
    probes.  Returns the pool and (seconds, scale) per repetition."""
    reps = []
    before = calib.sample()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter_ns()
        pool = workload.build(seed)
        warm = workload.build(REFERENCE_SEED, size=1, tag="ref")[0]
        workload.collect(warm, workload.run(warm))
        secs = (time.perf_counter_ns() - t0) / 1e9
        after = calib.sample()
        reps.append((secs, calib.scale(before, after)))
        before = after
    return pool, reps


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object plus details."""
    from calibrate import Calibration
    from tracing import Tracer, layer_metrics

    calib = Calibration()
    pool, setup_reps = setup(workload, seed, calib)
    setup_times = [secs for secs, _ in setup_reps]
    n_ref, failures = check_reference(workload)
    first: dict = {}
    if not trace:
        attempts = run_pass(workload, pool, seconds, calib)
        failures += check_attempts(workload, pool, attempts, first)
        quality = first_pass_quality(workload, pool, attempts)
        raw = [a.latency_ns / 1e6 for a in attempts]
        scaled = [ms * a.scale for ms, a in zip(raw, attempts)]
        lat = latency_summary(scaled)
        metrics = {
            "setup_s": statistics.median(secs * k for secs, k in setup_reps),
            "throughput": 1e3 * len(scaled) / sum(scaled),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "certified_frac": quality.get("certified_frac", 0.0),
            "mean_gap": quality.get("mean_gap", 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details = {
            "latency": lat,
            "raw": {"setup_s": statistics.median(setup_times), "throughput": 1e3 * len(raw) / sum(raw), **latency_summary(raw)},
            "probe_ms": {"median": statistics.median(calib.samples_ns) / 1e6, "n": len(calib.samples_ns)},
            "setup_times_s": setup_times,
            "passes": len(attempts) / len(pool),
            "quality": quality,
        }
        spans = []
    else:
        tracer = Tracer()
        plain, traced = run_pairs(workload, pool, seconds / 2, tracer)
        failures += check_attempts(workload, pool, plain, first)
        failures += check_attempts(workload, pool, traced, first)
        n = len(pool)
        spans = [s for s in tracer.spans if s.item < n]
        layers = layer_metrics(spans)
        quality = first_pass_quality(workload, pool, traced)
        layers["baseline.win_ratio"] = quality.get("baseline.win_ratio", 0.0)
        layers["trace.overhead_frac"] = sum(a.latency_ns for a in traced[:n]) / sum(a.latency_ns for a in plain[:n]) - 1.0
        metrics = layers
        attempts = plain + traced
        details = {"setup_times_s": setup_times, "spans": len(spans), "quality": quality}
    result = {
        "correct": not failures,
        "attempted": len(attempts) + n_ref,
        "failed": len(failures),
        "metrics": with_units(metrics, "per_layer" if trace else "end_to_end"),
    }
    details["failures"] = failures[:20]
    samples = {
        "items": [[a.index, a.latency_ns, a.scale] for a in attempts],
        "probes_ns": calib.samples_ns,
        "setup": [[secs, k] for secs, k in setup_reps],
    }
    return {"result": result, "details": details, "samples": samples, "spans": spans}


def with_units(values: dict, kind: str) -> dict:
    """Attach each metric's unit as declared in BENCHMARK.json, which must
    declare exactly these metrics."""
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_FILE.read_text())[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not declared both here and in BENCHMARK.json")
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = load_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    head = header(args, argv)
    print(json.dumps({"header": head}), flush=True)
    workload = workloads.make(args.workload, OUT_DIR / f"work-{os.getpid()}")
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.close()

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"header": head, "result": run["result"], "details": run["details"], "samples": run["samples"]}, fh)
        fh.write("\n")
        for s in run["spans"]:  # one span per line: name, start, end, parent, item, note
            fh.write(json.dumps(list(s)) + "\n")
    print(json.dumps({"details": run["details"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
