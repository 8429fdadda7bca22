"""kstab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload crease-hexagon --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 28

Run from the repository root; kstab is imported from ./src.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (task_ref_s, cpu_ref_s, peak_rss_mb, setup_s).  With ``--trace 1``
tasks alternate between untraced and traced, and the metrics are the
per-layer ones of ``bench/tracing.py`` plus trace_overhead.  Per-run records
(provenance, every task sample, the spans) go to ``.bench_work/results/``.
Workloads, metrics and the layer map are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3  # fresh processes before the tasks, and as many after
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "KSTAB_THREADS")
WORKLOAD_NAMES = ("crease-hexagon", "solve-box", "solve-escape", "lattice-triangle")
# The speed probe: every PROBE_PERIOD s of a task, time a fixed sum of
# PROBE_TERMS fractions.  REFERENCE_S is that sum's time at the reference
# speed the end-to-end times are rescaled to.
PROBE_PERIOD = 0.05
PROBE_TERMS = 300
REFERENCE_S = 1e-3


def probe_loop() -> float:
    """Time exact rational arithmetic, the mix of kstab's exact layers.

    Of three probes tried (an integer loop, a walk over scattered objects
    and this sum), this one tracked the crease scan's slow phases best.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        acc += Fraction(i, i + 7)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples how fast this vCPU runs while a task runs.

    On a shared virtual machine the speed of one vCPU can drift by 30 % or
    more over tens of seconds, which no statistic over one run removes.  A
    SIGALRM every PROBE_PERIOD s times probe_loop between the task's
    bytecodes, and once more after the task; `scale` turns the task's times
    into times at the reference speed.  `spent` is the time the handler took
    inside the task, which the caller subtracts before rescaling.  Signals
    wait for long C calls to return, so C-heavy tasks get fewer samples, all
    taken in the Python-level gaps between those calls.
    """

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe_loop())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe_loop())

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)


def import_kstab():
    """Put ./src and bench/ on the path and import the workloads.

    Exits with an error when the checkout holds no kstab sources, so a copy
    holding only the benchmark fails instead of measuring something else.
    """
    src = ROOT / "src"
    if not (src / "kstab" / "__init__.py").is_file():
        sys.exit(f"error: no kstab sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import kstab
    if Path(kstab.__file__).resolve().parent != (src / "kstab").resolve():
        sys.exit(f"error: kstab imported from {kstab.__file__}, not from {src}")
    import workloads
    return workloads


def setup_probe(name: str, seed: int) -> None:
    """What every fresh process pays before its first task: imports and inputs.

    Prints the system-wide monotonic clock when set-up is done, so the
    parent's measurement excludes interpreter shutdown.
    """
    workloads = import_kstab()
    probe = WORK / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[name](seed, workloads.FULL, probe)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
    finally:
        shutil.rmtree(probe, ignore_errors=True)


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", name, "--seed", str(seed)],
                              cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def run_tasks(wl, seconds: float, trace: bool, tracer):
    """Run tasks until the next one would end past `seconds`.

    Returns one sample per task: wall and CPU seconds without the speed
    probe's own time, the probe's scale, the oracle's problems, the bytes
    written and, for a traced task, its range of spans.  With trace, tasks
    alternate untraced and traced, and at least one of each runs.
    """
    samples = []
    start = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        wl.reset()
        first_span = len(tracer.spans)
        probe = SpeedProbe()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with probe, tracer.installed(len(samples)) if traced else contextlib.nullcontext():
                result = wl.run()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            problems = wl.check(result)
        except Exception:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            problems = ["task raised:\n" + traceback.format_exc()]
        wall, cpu = wall - probe.spent, cpu - probe.spent
        written = sum(f.stat().st_size for f in wl.out.rglob("*") if f.is_file())
        samples.append({"wall_s": wall, "cpu_s": cpu, "scale": probe.scale,
                        "probes": len(probe.samples), "probe_s": probe.spent,
                        "problems": problems,
                        "bytes_written": written,
                        "spans": [first_span, len(tracer.spans)] if traced else None})
        for p in problems:
            print(f"FAILED task {len(samples)}: {p}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        enough = len(samples) >= (2 if trace else 1)
        if enough and elapsed + wall > seconds:
            return samples


def run_workload(args) -> int:
    workloads = import_kstab()
    import tracing
    setup = measure_setup(args.workload, args.seed)
    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer()
    try:
        # Warm-up on the tiny size loads lazily imported code outside timing.
        warm = cls(args.seed, workloads.TINY, workdir / "warmup")
        warm.run()
        wl = cls(args.seed, workloads.FULL, workdir / "measured")
        samples = run_tasks(wl, args.seconds, args.trace == 1, tracer)
        # Set-up is sampled before and after the tasks, tens of seconds
        # apart, so one slow phase of the machine does not set the median.
        setup += measure_setup(args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in samples if s["problems"])
    plain = [s for s in samples if not s["spans"]]
    traced = [s for s in samples if s["spans"]]

    def median(key, rows, scaled=True):
        return statistics.median(s[key] * (s["scale"] if scaled else 1) for s in rows)

    raw = {"task_s": median("wall_s", plain, False), "cpu_s": median("cpu_s", plain, False)}
    if args.trace:
        per_task = []
        for s in traced:
            m = tracing.layer_metrics(tracer.spans[slice(*s["spans"])])
            m["cli.bytes_written"] = s["bytes_written"]
            per_task.append(m)
        metrics = {k: statistics.median(m[k] for m in per_task) for k in per_task[0]}
        metrics["trace_overhead"] = median("wall_s", traced) / median("wall_s", plain) - 1
        units = {k: tracing.unit_of(k) for k in metrics}
    else:
        metrics = {
            "task_ref_s": median("wall_s", plain),
            "cpu_ref_s": median("cpu_s", plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        units = {"task_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds,
              "provenance": provenance(args.seed), "setup_samples": setup,
              "samples": samples, "error_rate": failed / len(samples),
              "raw_medians": raw, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [vars(s) for s in tracer.spans]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({"provenance": record["provenance"]}))
    print(f"{args.workload}: {len(samples)} tasks, {failed} failed, "
          f"error_rate {failed / len(samples):.4g}")
    for k, v in metrics.items():
        print(f"  {k:<28} {v:>14.6g} {units[k]}")
    for k, v in raw.items():
        print(f"  {k + ' (raw, untraced)':<28} {v:>14.6g} s")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        rows[name] = result
    print(f"{'workload':<18} {'metric':<28} {'value':>14} unit")
    for name, result in rows.items():
        print(f"{name:<18} {'error_rate':<28} {result['failed'] / result['attempted']:>14.6g} "
              f"({result['failed']}/{result['attempted']})")
        for k, m in result["metrics"].items():
            print(f"{name:<18} {k:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{name}.{k}": m for name, r in rows.items()
                                  for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
