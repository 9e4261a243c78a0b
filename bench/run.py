"""Benchmark of equator-forge: one workload per invocation.

    python3 bench/run.py --workload verify --seed 1 --seconds 55 --trace 0

Times set-up in fresh interpreters, then runs one untimed warm-up pass and
timed passes over the workload's job list for about ``--seconds`` seconds in
this process (a closed loop with one client: each job starts when the previous
one ends), checking every job's output with the benchmark's own code.  Between
jobs it times a fixed reference loop, to gauge the host's speed.  Pass k
draws its inputs from a generator seeded by (``--seed``, k), so a run averages
over several input sets and a seed always gives the same inputs.  With
``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it runs untraced passes, then the inputs of pass 0 once more
untraced and once traced, and reports the per-layer metrics and the tracing
overhead.  A human-readable summary and
a full JSON report (written under ``.bench_out/``) come first; the last line
of standard output is the result object.

The program is imported from ``src/`` of the checkout holding this file and
used only through its public functions and ``equator_forge.cli.main``.  The
thread variables are left as found and recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from bench import layers, trace  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("EQUATOR_FORGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 7
RESIDUAL_FLOOR = 1e-16
REF_ITERS = 2000  # one reference sample: about 45 ms
REF_SAMPLES = 12  # reference samples per pass, spread over the gaps between jobs
TAIL_PERCENTILE = 90

# inputs of the untimed warm-up pass: a pass index that no timed pass reaches
WARMUP_INDEX = 2**31 - 1

# (name, unit, meaning); fail_ratio is 0 when nothing fails, so the result
# line carries it as attempted/failed instead of as a metric.  On a shared host
# the speed of fixed work drifts by a third over minutes, in CPU time as well as
# in wall time, and wall time also counts the time the VM is not scheduled.  So
# the result line carries cpu_rel, the CPU time of a pass divided by that of a
# fixed reference loop timed between the jobs of the same pass, which cancels
# the drift; the times in seconds are printed and recorded
END_TO_END = [
    ("setup_s", "s", "fresh interpreter: import equator_forge.cli and fill basis_matrix(n)"),
    ("run_s", "s", "median wall time of one pass over the job list"),
    ("job_p50_s", "s", "median job wall time"),
    ("job_tail_s", "s", f"job wall time, percentile {TAIL_PERCENTILE} of all jobs of the run"),
    ("cpu_s", "s", "median process user+sys CPU time per pass"),
    ("cpu_rel", "1", "median over passes of CPU time per pass / CPU time of one reference loop"),
    ("peak_rss_mb", "MB", "peak resident set of the benchmark process"),
    ("fail_ratio", "1", "jobs failing the benchmark's checks / jobs attempted"),
    ("residual_digits", "digits", "-log10 of the worst checked member residual, floor 1e-16"),
]
RESULT_METRICS = ["setup_s", "cpu_rel", "peak_rss_mb", "residual_digits"]

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import equator_forge.cli
from equator_forge.tensor_core import basis_matrix
for n in sys.argv[2:]:
    basis_matrix(int(n))
print(time.perf_counter() - t0)
"""


def load_program():
    """Import equator_forge from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "equator_forge" / "__init__.py").is_file():
        sys.exit(f"error: no equator_forge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import equator_forge
    import equator_forge.cli

    if Path(equator_forge.__file__).resolve().parent != SRC / "equator_forge":
        sys.exit(f"error: imported equator_forge from {equator_forge.__file__}, not {SRC}")
    return SimpleNamespace(package=equator_forge, cli=equator_forge.cli)


def setup_seconds(sizes) -> list[float]:
    """Set-up time measured inside fresh interpreters, one sample each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, sizes)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


_REF_A = np.eye(5) * 2.0 + np.arange(25.0).reshape(5, 5) / 250.0
_REF_G = np.arange(100.0).reshape(4, 5, 5) / 100.0


def reference_cpu() -> float:
    """CPU seconds of a fixed loop of the small numpy and Python work the program does."""
    c0 = time.process_time()
    acc = 0.0
    for i in range(REF_ITERS):
        B = np.linalg.inv(_REF_A)
        acc += float(np.einsum("ij,aji->a", B, _REF_G)[0]) * np.linalg.det(_REF_A) + i * 0.5
    return time.process_time() - c0


def run_pass(jobs, recorder=None) -> dict:
    """One pass over the job list: timed program work with reference samples
    between the jobs, then untimed checks.  CPU times count all threads."""
    outputs, times, cpu_times, refs = [], [], [], []
    per_gap = -(-REF_SAMPLES // (len(jobs) + 1))
    for index, job in enumerate(jobs):
        refs += [reference_cpu() for _ in range(per_gap)]
        if recorder is not None:
            recorder.set_job(index)
        tj, cj = time.perf_counter(), time.process_time()
        try:
            outputs.append((job.run(), None))
        except Exception:  # a failing job is counted, reported and survived
            outputs.append((None, traceback.format_exc(limit=3)))
        times.append(time.perf_counter() - tj)
        cpu_times.append(time.process_time() - cj)
    refs += [reference_cpu() for _ in range(per_gap)]
    results = []
    for job, (out, error) in zip(jobs, outputs):
        problems, residuals = ([f"raised: {error.strip().splitlines()[-1]}"], []) if error \
            else job.check(out)
        results.append({"job": job.label, "problems": problems, "residuals": residuals,
                        "error": error})
    return {"run_s": sum(times), "cpu_s": sum(cpu_times), "ref_cpu_s": refs, "job_s": times,
            "job_cpu_s": cpu_times, "results": results}


def job_tail(times: list[float]) -> float:
    """Percentile TAIL_PERCENTILE of the job times, interpolated between order statistics."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD commit read from .git without running git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(thread_vars: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_vars": thread_vars,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def pass_digits(result: dict) -> float | None:
    """-log10 of the worst residual of the jobs that passed their checks in one pass."""
    residuals = [x for r in result["results"] if not r["problems"] for x in r["residuals"]]
    if not residuals:
        return None
    return -math.log10(max(max(residuals), RESIDUAL_FLOOR))


def summarize(passes: list[dict]) -> dict:
    """Checks of every pass; times of the timed passes only."""
    results = [r for p in passes for r in p["results"]]
    failed = sum(1 for r in results if r["problems"])
    digits = [d for d in map(pass_digits, passes) if d is not None]
    timed = [p for p in passes if p["timed"]]
    times = [t for p in timed for t in p["job_s"]]
    return {
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            "run_s": statistics.median(p["run_s"] for p in timed),
            "job_p50_s": statistics.median(times),
            "job_tail_s": job_tail(times),
            "cpu_s": statistics.median(p["cpu_s"] for p in timed),
            "cpu_rel": statistics.median(
                p["cpu_s"] / statistics.mean(p["ref_cpu_s"]) for p in timed),
            "fail_ratio": failed / len(results),
            "residual_digits": statistics.median(digits) if digits else 0.0,
        },
        "failures": [r for p in passes for r in p["results"] if r["problems"]],
    }


def measure(make_jobs, budget: float) -> list[dict]:
    """An untimed warm-up pass, then timed passes until the next one would end
    after ``budget`` seconds (at least one)."""
    start = time.perf_counter()
    passes = [dict(run_pass(make_jobs(WARMUP_INDEX, "warmup")), timed=False)]
    while True:
        passes.append(dict(run_pass(make_jobs(len(passes) - 1)), timed=True))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["run_s"] for p in passes if p["timed"]) > budget:
            return passes


def traced_pass(jobs) -> tuple[dict, trace.SpanRecorder]:
    recorder = trace.SpanRecorder()
    recorder.install()
    try:
        result = run_pass(jobs, recorder)
    finally:
        recorder.uninstall()
    return result, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    thread_vars = {name: os.environ.get(name) for name in THREAD_VARS}
    program = load_program()
    workload = WORKLOADS[args.workload]
    setup = setup_seconds(workload.sizes)
    from equator_forge.tensor_core import basis_matrix

    for n in workload.sizes:
        basis_matrix(n)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    labels = []

    def make_jobs(index: int, tag: str = "pass"):
        """The job list of pass ``index``, from a generator seeded by (seed, index)."""
        passdir = workdir / f"{tag}{index}"
        passdir.mkdir()
        jobs = workload.build(program, np.random.default_rng([args.seed, index]), str(passdir))
        labels.append([job.label for job in jobs])
        return jobs

    try:
        if args.trace:
            passes = measure(make_jobs, args.seconds / 2)
            # the traced pass repeats the inputs of pass 0, so its counts depend on the seed
            # alone; the overhead compares it with a warm untraced pass on those inputs, as
            # pass 0 itself pays first-use costs
            untraced = run_pass(make_jobs(0, "untraced"))
            jobs = make_jobs(0, "traced")
            traced, recorder = traced_pass(jobs)
            stats = trace.family_stats(recorder)
            values = layers.layer_values(stats, len(jobs))
            untraced_run_s = untraced["run_s"]
            values[layers.OVERHEAD.name] = traced["run_s"] / untraced_run_s
            rows = recorder.spans()
            np.savez_compressed(OUT / f"{stem}-spans.npz", spans=rows,
                                families=np.array(recorder.families))
            passes += [dict(untraced, timed=False), dict(traced, timed=False)]
            units = {m.name: m.unit for m in [*layers.LAYER_METRICS, layers.OVERHEAD]}
            extra = {"spans": int(rows.shape[0]), "traced_run_s": traced["run_s"],
                     "untraced_run_s": untraced_run_s,
                     "families": {k: vars(v) for k, v in stats.items()}}
        else:
            passes = measure(make_jobs, args.seconds)
            extra = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(passes)
    if args.trace:
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    else:
        e2e = dict(summary["metrics"])
        e2e["setup_s"] = statistics.median(setup)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {name: unit for name, unit, _ in END_TO_END}
        print(f"{args.workload} seed={args.seed}: {len(passes) - 1} timed passes "
              f"of {len(labels[0])} jobs after a warm-up pass")
        for name, unit, meaning in END_TO_END:
            print(f"  {name:16s} {e2e[name]:14.6g} {unit:7s} {meaning}")
        ref = statistics.median(r for p in passes for r in p["ref_cpu_s"])
        print(f"  reference loop: median {ref:.4g} s CPU")
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name in RESULT_METRICS}
    for failure in summary["failures"]:
        print(f"  FAILED {failure['job']}: {'; '.join(failure['problems'])}")

    report = {
        "workload": args.workload,
        "why": workload.why,
        "mix": workload.mix,
        "jobs_per_pass": labels,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(thread_vars),
        "setup_samples_s": setup,
        "passes": [{k: p[k] for k in ("timed", "run_s", "cpu_s", "ref_cpu_s", "job_s", "job_cpu_s")}
                   for p in passes],
        "fail_ratio": summary["metrics"]["fail_ratio"],
        "job_tail": {"percentile": TAIL_PERCENTILE, "jobs": summary["attempted"],
                     "value_s": summary["metrics"]["job_tail_s"]},
        "failures": summary["failures"],
        "metrics": metrics,
        "layer_metric_moves": {m.name: m.moves for m in [*layers.LAYER_METRICS, layers.OVERHEAD]},
        **extra,
    }
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:52s} {entry['value']:14.6g} {entry['unit']}")
    report_path = OUT / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  report: {report_path.relative_to(ROOT)}")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
