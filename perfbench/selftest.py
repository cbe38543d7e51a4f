"""Self-test of the benchmark itself, at toy size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs clean at toy size, that planted wrong
outputs raise fail_ratio, that a traced run yields every per-layer metric
named in BENCHMARK.json, that a wrapped name the package lacks is
reported as missing, and that the benchmark exits non-zero without a
result when the rdkan sources are absent.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.import_rdkan()

from rdkan import harness, oscfar  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def toy(name, trace_flag=0):
    outcome = run.run_benchmark(name, SEED, seconds=0, trace_flag=trace_flag, toy=True)
    return outcome["tally"], outcome["metrics"]


def check_clean_runs():
    problems = []
    for name in workloads.WORKLOADS:
        tally, metrics = toy(name)
        if tally.failed or not metrics:
            problems.append(f"{name}: {tally.failed} of {tally.attempted} failed: {tally.problems}")
    return problems


def check_planted_hit_count():
    original = harness.run_monte_carlo

    def one_hit_fewer(*args, **kwargs):
        report = original(*args, **kwargs)
        report.pd[0, -1] -= 1.0 / report.n_trials   # one kan hit at the top SNR lost
        return report

    with mock.patch.object(harness, "run_monte_carlo", one_hit_fewer):
        tally, _ = toy("mc-compare")
    if tally.failed == 0:
        return ["altered MC hit count went unnoticed"]
    if not any("hits" in p for p in tally.problems):
        return [f"altered hit count caught for the wrong reason: {tally.problems}"]
    return []


def check_planted_false_alarms():
    original = oscfar.empirical_false_alarm_rate

    def inflated(*args, **kwargs):
        rates, total = original(*args, **kwargs)
        return rates * 10.0, total                      # miscalibrated threshold

    with mock.patch.object(oscfar, "empirical_false_alarm_rate", inflated):
        tally, _ = toy("cfar-calibrate")
    return [] if tally.failed >= 2 else [f"inflated Pfa caught {tally.failed} times, expected 2"]


def check_traced_run():
    doc = json.loads(BENCHMARK_JSON.read_text())
    tally, metrics = toy("mc-compare", trace_flag=1)
    problems = [f"traced run failed: {tally.problems}"] if tally.failed else []
    wanted = {m["name"] for m in doc["per_layer"]}
    if set(metrics) != wanted:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"missing {sorted(wanted - set(metrics))}, extra {sorted(set(metrics) - wanted)}")
    if metrics.get("trace.missing", (1,))[0] != 0:
        problems.append("wrapped names missing from rdkan")
    return problems


def check_missing_name():
    tracer = spans.Tracer(spans.WRAPPED + ("rdmap.no_such_function",))
    original = harness.run_monte_carlo
    tracer.install()
    try:
        wrapped = harness.run_monte_carlo is not original
    finally:
        tracer.uninstall()
    problems = []
    if tracer.missing != ["rdmap.no_such_function"]:
        problems.append(f"missing names reported as {tracer.missing}")
    if not wrapped or harness.run_monte_carlo is not original:
        problems.append("install/uninstall did not wrap and restore run_monte_carlo")
    return problems


def check_self_time_ranking():
    """On an MC-like map, the segment histogram has the largest self time."""
    tracer = spans.Tracer()
    detectors = [harness.detector_from_id(d) for d in workloads.McCompare.detector_ids]
    tracer.install()
    try:
        with tracer.op():
            harness.run_monte_carlo(detectors, (0.0, 20.0), n_trials=1, seed=SEED)
    finally:
        tracer.uninstall()
    top = spans.self_time_ranking(tracer, 1)[0][0]
    return [] if top == "rdmap.segment_histogram_map" else [f"largest self time is {top}"]


def check_exits_without_sources():
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT))
    try:
        shutil.copytree(run.HERE, workdir / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCHMARK_JSON, workdir / BENCHMARK_JSON.name)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "mc-compare",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=workdir, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without rdkan sources")
    if '"metrics"' in proc.stdout:
        problems.append("printed a result without rdkan sources")
    return problems


CHECKS = (
    check_clean_runs,
    check_planted_hit_count,
    check_planted_false_alarms,
    check_traced_run,
    check_missing_name,
    check_self_time_ranking,
    check_exits_without_sources,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        problems = check()
        failed += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {check.__name__}" +
              "".join(f"\n    {p}" for p in problems), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
