"""rdkan benchmark: run one workload, print its metrics, check its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload mc-compare --seed 1 --seconds 12 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
twice, once plain and once with span tracing, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Workloads, metrics and the
layer-to-end-to-end mapping are described in perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; recorded in the provenance.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
MAX_REPORTED_PROBLEMS = 10


def import_rdkan():
    """Put the checkout's src/ first on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "rdkan" / "__init__.py").is_file():
        raise SystemExit(f"error: no rdkan package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import rdkan
    if Path(rdkan.__file__).resolve().parent != src / "rdkan":
        raise SystemExit(f"error: imported rdkan from {rdkan.__file__}, expected {src}")


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def measure_setup(name, seed, toy, repeats=SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing rdkan and building inputs."""
    times = []
    for _ in range(repeats):
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
        try:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--setup-only", str(workdir)] + (["--toy"] if toy else [])
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr[-500:]}")
    return statistics.median(times)


def check_reference(workload, tally) -> None:
    import workloads
    expected = json.loads(workloads.REFERENCES.read_text()).get(workload.name)
    try:
        got = workload.reference()
    except Exception:
        tally.record("reference", [traceback.format_exc(limit=3)])
        return
    problems = []
    if expected is None:
        problems.append("no recorded reference")
    for key in sorted(set(got) | set(expected or {})):
        if expected is not None and got.get(key) != expected.get(key):
            problems.append(f"{key}: got {got.get(key)}, recorded {expected.get(key)}")
    tally.record("reference", problems)


def run_op(workload, k, tally, tracer=None):
    """One operation; returns (seconds, output or None when it raised)."""
    try:
        if tracer is None:
            start = time.perf_counter()
            output = workload.run(k)
            return time.perf_counter() - start, output
        tracer.install()
        try:
            with tracer.op() as span:
                output = workload.run(k)
        finally:
            tracer.uninstall()
        return span.seconds, output
    except Exception:
        tally.record(f"op {k}", [traceback.format_exc(limit=3)])
        return None, None


def check_outputs(workload, outputs, tally) -> None:
    for k, output in outputs:
        try:
            problems = workload.check(output)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        tally.record(f"op {k}", problems)


def percentile(values, q) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, seconds, tally):
    """Closed loop until `seconds` have passed, ending on a whole input pass."""
    latencies, outputs, units = [], [], 0.0
    start = time.perf_counter()
    k = 0
    while True:
        dt, output = run_op(workload, k, tally)
        if output is not None:
            latencies.append(dt)
            outputs.append((k, output))
            units += workload.units(output)
        k += 1
        if k % workload.pass_len == 0 and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    check_outputs(workload, outputs, tally)
    if not latencies:
        return {}, 0
    return {
        "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms.p90": (percentile(latencies, 90) * 1e3, "ms"),
        "throughput": (units / elapsed, "1/s"),
    }, len(latencies)


def traced(workload, seconds, tally):
    """Each input runs plain and traced, alternating which goes first."""
    import spans as tracing
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    outputs = []
    start = time.perf_counter()
    k = 0
    n_traced = 0
    while True:
        for use_tracer in ((False, True) if k % 2 == 0 else (True, False)):
            dt, output = run_op(workload, k, tally, tracer if use_tracer else None)
            if output is None:
                continue
            outputs.append((k, output))
            if use_tracer:
                traced_s += dt
                n_traced += 1
            else:
                plain_s += dt
        k += 1
        if k % workload.pass_len == 0 and time.perf_counter() - start >= seconds:
            break
    check_outputs(workload, outputs, tally)
    overhead_pct = 100.0 * (traced_s - plain_s) / plain_s if plain_s > 0 else 0.0
    metrics = tracing.layer_metrics(tracer, n_traced, overhead_pct)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{workload.seed}.spans.jsonl"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    if tracer.missing:
        print(f"missing wrapped names: {', '.join(tracer.missing)}")
    print("largest self time per op:")
    for name, ms in tracing.self_time_ranking(tracer, n_traced)[:6]:
        print(f"  {name:40s} {ms:10.3f} ms")
    return metrics


def provenance(workload: str, seed: int, trace_flag: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace_flag,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def run_benchmark(name, seed, seconds, trace_flag, toy=False) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name]()
    tally = Tally()
    metrics, n_ops = {}, None
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        if not trace_flag:
            metrics["setup_s"] = (measure_setup(name, seed, toy, 1 if toy else SETUP_REPEATS), "s")
        workload.setup(seed, workdir, toy)
        check_reference(workload, tally)       # also the warm-up
        if trace_flag:
            metrics.update(traced(workload, seconds, tally))
        else:
            timed, n_ops = end_to_end(workload, seconds, tally)
            metrics.update(timed)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"tally": tally, "metrics": metrics, "ops": n_ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="smallest inputs, for the self-test")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only import rdkan and build the inputs in DIR (times setup_s)")
    args = parser.parse_args(argv)

    import_rdkan()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload]().setup(args.seed, Path(args.setup_only), args.toy)
        return 0

    info = provenance(args.workload, args.seed, args.trace)
    outcome = run_benchmark(args.workload, args.seed, args.seconds, args.trace, args.toy)
    tally, metrics = outcome["tally"], outcome["metrics"]

    for problem in tally.problems:
        print(f"FAILED {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:14.6g} {unit}")
    if outcome["ops"] is not None:
        print(f"{'ops timed':40s} {outcome['ops']:14d}")
    print(f"{'fail_ratio':40s} {tally.failed / max(tally.attempted, 1):14.6g} "
          f"({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=info, ops=outcome["ops"], problems=tally.problems)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    print("provenance " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
