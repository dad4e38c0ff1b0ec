"""utilcal benchmark: one workload per process, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S          # every workload

A run imports utilcal from this checkout's ``src/``, builds the workload's
inputs from the seed (three times; the median build counts), checks one
untimed warm-up job, then runs jobs back to back (a closed loop with one
caller) until ``--seconds`` have passed.  Every job's outputs are checked.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``job_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1``
jobs alternate between traced and untraced, and the metrics are the
per-layer ones from the traced jobs plus the tracing overhead.
"""

import time

T_START = time.perf_counter()  # the process's start, near enough

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


class SetupError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def load_program() -> float:
    """Import utilcal from this checkout's ``src/``; returns the seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import utilcal
        import utilcal.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import utilcal from {SRC}: {exc}") from exc
    if Path(utilcal.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"imported utilcal from {utilcal.__file__}, not from {SRC}")
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


# --- provenance -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas_threads(np) -> int | str:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
        "git_commit": commit,
        "seed": seed,
    }


# --- one workload -------------------------------------------------------------


class Checker:
    """Runs jobs and checks each one's outputs.  Outputs must be identical
    across jobs; a verdict is cached per distinct output.

    ``check_rss_rise_mb`` is how far the checks (not the program) have raised
    the process's resident high-water mark; when it is above 0, ``peak_rss_mb``
    is partly the harness's."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.verdicts: dict[str, list[str]] = {}
        self.first: str | None = None
        self.check_rss_rise_mb = 0.0

    def run(self, tracer=None) -> tuple[float, list[str]]:
        """One job, traced by ``tracer`` when given, then its checks (never
        traced)."""
        w = self.workload
        w.clean()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = w.job()
            seconds = time.perf_counter() - t0
        except Exception:
            return time.perf_counter() - t0, [traceback.format_exc()]
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_before = peak_rss_mb()
        try:
            outputs = w.outputs(result)
            digest = hashlib.sha256()
            for blob in outputs:
                digest.update(len(blob).to_bytes(8, "little"))
                digest.update(blob)
            key = digest.hexdigest()
            if key not in self.verdicts:
                self.verdicts[key] = w.verify(outputs)
            problems = list(self.verdicts[key])
        except Exception:
            return seconds, [traceback.format_exc()]
        finally:
            self.check_rss_rise_mb += peak_rss_mb() - peak_before
        if self.first is None:
            self.first = key
        elif key != self.first:
            problems.append("outputs differ from the first job's")
        return seconds, problems


def measure(workload, seconds: float, import_s: float, tracer=None) -> dict:
    """Set up ``workload``, then run jobs for ``seconds``; traced jobs (every
    other one) when a tracer is given."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        facts = workload.build()
        builds.append(time.perf_counter() - t0)
    facts["rss_after_inputs_mb"] = round(peak_rss_mb(), 1)
    t0 = time.perf_counter()
    workload.reference()
    reference_s = time.perf_counter() - t0

    checker = Checker(workload)
    warmup_s, problems = checker.run()
    failures = [problems] if problems else []

    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds or (tracer and not (plain and traced)):
        use_trace = tracer is not None and k % 2 == 0
        if use_trace:
            tracer.job = k
        job_s, problems = checker.run(tracer if use_trace else None)
        (traced if use_trace else plain).append(job_s)
        if problems:
            failures.append(problems)
        k += 1
    return {
        "facts": facts,
        "import_s": import_s,
        "build_s": builds,
        "warmup_s": warmup_s,
        "reference_s": reference_s,
        "setup_wall_s": start - T_START - reference_s,
        "setup_s": import_s + statistics.median(builds) + warmup_s,
        "job_s": plain,
        "traced_job_s": traced,
        "attempted": 1 + len(plain) + len(traced),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "check_rss_rise_mb": checker.check_rss_rise_mb,
    }


def metrics_of(run: dict, tracer=None) -> dict[str, dict]:
    """The end-to-end metrics, or the per-layer ones when traced, each with
    the unit BENCHMARK.json declares for it."""
    if tracer is None:
        declared = "end_to_end"
        values = {
            "job_s": statistics.median(run["job_s"]),
            "setup_s": run["setup_s"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
    else:
        import tracing

        declared = "per_layer"
        values = tracing.layer_metrics(tracer.spans, len(run["traced_job_s"]))
        values["trace.overhead_ratio"] = (
            statistics.median(run["traced_job_s"]) / statistics.median(run["job_s"]) - 1.0
        )
        values["trace.missing_names"] = len(tracer.missing)
    units = {m["name"]: m["unit"] for m in benchmark_spec()[declared]}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, seed: int, seconds: float, run: dict, prov: dict) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    jobs = run["job_s"]
    print(f"workload {workload.name} (seed {seed}, {seconds:g} s, one closed-loop caller)")
    print("inputs: " + json.dumps(run["facts"]))
    print("provenance: " + json.dumps(prov))
    tail = tail_percentile(jobs)
    tail_text = f", p{tail[0]:.0f} {tail[1]:.4f} s" if tail else ", no tail percentile below 11 jobs"
    if jobs:
        print(f"job_s        {statistics.median(jobs):.4f} s  median of {len(jobs)} jobs{tail_text}")
    if run["traced_job_s"]:
        print(f"traced job_s {statistics.median(run['traced_job_s']):.4f} s  "
              f"median of {len(run['traced_job_s'])} traced jobs")
    builds = ", ".join(f"{b:.3f}" for b in run["build_s"])
    print(f"setup_s      {run['setup_s']:.4f} s  import {run['import_s']:.3f} + build "
          f"median({builds}) + warm-up {run['warmup_s']:.3f}; {run['setup_wall_s']:.3f} s from"
          f" process start (reference checks {run['reference_s']:.3f} s excluded)")
    print(f"peak_rss_mb  {run['peak_rss_mb']:.1f} MB  (the output checks raised it by "
          f"{run['check_rss_rise_mb']:.1f} MB)")
    failed = len(run["failures"])
    print(f"fail_ratio   {failed / run['attempted']:.4f}  ({failed} of {run['attempted']} jobs failed)")
    for problems in run["failures"][:3]:
        print("failure: " + "; ".join(p.strip() for p in problems), file=sys.stderr)


def run_one(args) -> int:
    import_s = load_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    prov = provenance(args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, tiny=args.tiny)
        run = measure(workload, args.seconds, import_s, tracer)
        metrics = metrics_of(run, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(workload, args.seed, args.seconds, run, prov)
    if tracer is not None:
        print(f"trace: {len(tracer.spans)} spans; missing names: {tracer.missing or 'none'}")
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl"))
    failed = len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one summary row each."""
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, result in rows:
        cells = [] if args.trace else [
            f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()
        ]
        cells.append(f"fail_ratio {result['failed'] / result['attempted']:.4g}")
        print(f"  {name:16s} " + "  ".join(cells))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, for smoke tests")
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
