"""balloonlink benchmark: CLI wall time and memory, or a traced per-layer run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 42 --trace 0

--trace 0 runs every job of the workload as a real `python -m balloonlink`
process (closed loop, one client: each process is started only after the
previous one was reaped) and reports the end-to-end metrics. A bare
interpreter start (`python -S -c pass`) runs just before each CLI process,
and each CLI wall time is divided by that start's, so that a shared host
running faster or slower for a while moves the time metrics less. The
set-up (scenario files plus one warm-up process) is repeated at even steps
through the run and reported as a median. --trace 1 replays the same argv
list in-process through balloonlink.cli.main with span wrappers installed,
and takes the import layer from `-X importtime` processes. Every product
of every run is checked against closed forms.
The last line of stdout is one JSON object; earlier lines are a
human-readable record (machine, commit, failures, per-job breakdown).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checker
import scenarios
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / "perfbench" / ".work"

PROCESS_TIMEOUT_S = 60.0
SETUP_REPEATS = 7
FLOOR_REPEATS = 3
START_REF_ARGS = ("-S", "-c", "pass")
IMPORTTIME_REPEATS = 3
STDERR_TAIL_CHARS = 400


@dataclass
class Outcome:
    """Result of one CLI process or in-process call."""

    label: str
    argv: list[str]
    wall_s: float
    start_ref_s: float = 0.0
    maxrss_kb: int = 0
    products: int = 0
    error: str | None = None


def child_env() -> dict[str, str]:
    """The caller's environment minus PYTHON* settings, plus PYTHONPATH=src.

    Dropping variables such as PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED
    gives every child Python's defaults, as an installed CLI has: the
    set-up warm-up writes the bytecode cache and timed processes reuse it.
    PYTHONHOME stays, since the interpreter may need it to start at all.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, int]:
    """Run `python <args>`; return (wall seconds, exit code, max RSS in KB).

    Wall time runs from just before the fork to the reap, so interpreter
    start-up is included. A process still running after PROCESS_TIMEOUT_S
    is killed, which reports as exit code -9.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env()
        )
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _tail(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return text[-STDERR_TAIL_CHARS:].replace("\n", " | ")


def clear_products(job: scenarios.Job, out_dir: Path) -> None:
    for name in checker.products(job.command):
        with contextlib.suppress(FileNotFoundError):
            (out_dir / name).unlink()


def check_outcome(job, out_dir: Path, stdout: str) -> tuple[int, str | None]:
    try:
        return checker.check(job.command, job.scenario, job.flags, out_dir, stdout), None
    except checker.CheckError as exc:
        return 0, f"check failed: {exc}"


def run_process(job: scenarios.Job, work: Path, extra: tuple[str, ...] = ()) -> Outcome:
    out_dir = work / "out"
    argv = job.argv(work, out_dir)
    clear_products(job, out_dir)
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    wall, code, rss = spawn([*extra, "-m", "balloonlink", *argv], stdout_path, stderr_path)
    outcome = Outcome(job.label, argv, wall, maxrss_kb=rss)
    if code != 0:
        reason = f"exit code {code}" if code > 0 else f"killed by signal {-code}"
        if wall >= PROCESS_TIMEOUT_S:
            reason += f" after the {PROCESS_TIMEOUT_S:g} s timeout"
        outcome.error = f"{reason}; stderr: {_tail(stderr_path)}"
    else:
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        outcome.products, outcome.error = check_outcome(job, out_dir, stdout)
    return outcome


def bare_floor_ms(work: Path) -> float:
    """Median wall time of `python -c pass`: context only, not a metric."""
    walls = [spawn(["-c", "pass"], work / "stdout.txt", work / "stderr.txt")[0] for _ in range(FLOOR_REPEATS)]
    return statistics.median(walls) * 1e3


def measured_package(work: Path) -> str:
    """Where the child processes import balloonlink from; must be SRC."""
    probe = "import importlib.util; print(importlib.util.find_spec('balloonlink').origin)"
    _, code, _ = spawn(["-c", probe], work / "stdout.txt", work / "stderr.txt")
    location = (work / "stdout.txt").read_text(encoding="utf-8").strip()
    if code != 0 or not Path(location).resolve().is_relative_to(SRC.resolve()):
        found = location or _tail(work / "stderr.txt")
        raise RuntimeError(f"balloonlink is not imported from {SRC}: {found}")
    return location


def setup(workload: str, seed: int, work: Path) -> tuple[list[scenarios.Job], float, Outcome]:
    """Generate the scenario files and run one untimed warm-up process.

    Returns the jobs, the set-up time and the warm-up outcome.
    """
    start = perf_counter()
    jobs = scenarios.generate(workload, seed, work)
    (work / "out").mkdir(exist_ok=True)
    warmup = run_process(jobs[0], work)
    return jobs, perf_counter() - start, warmup


def run_cycles(jobs, seconds: float, run_job) -> list[Outcome]:
    """Run whole cycles of jobs while the next cycle still fits in `seconds`."""
    outcomes: list[Outcome] = []
    start = perf_counter()
    cycles = 0
    while True:
        for job in jobs:
            outcomes.extend(run_job(job))
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            return outcomes


def run_referenced(job: scenarios.Job, work: Path) -> Outcome:
    """Run the job's CLI process right after a bare interpreter start, its time reference.

    On a shared host every process can run a quarter slower or faster for
    seconds to minutes at a time. The bare start just before a CLI process
    sees the same host, so the ratio of the two drifts less than either.
    """
    start_ref_s = spawn(list(START_REF_ARGS), work / "stdout.txt", work / "stderr.txt")[0]
    outcome = run_process(job, work)
    outcome.start_ref_s = start_ref_s
    return outcome


def end_to_end(workload: str, seed: int, seconds: float, work: Path, record: dict):
    record["balloonlink_imported_from"] = measured_package(work)
    jobs, setup_first_s, warmup = setup(workload, seed, work)
    setup_times, warmups = [setup_first_s], [warmup]

    def set_up_again():
        _, took, again = setup(workload, seed, work)
        setup_times.append(took)
        warmups.append(again)

    loop_start = perf_counter()

    def run_job(job):
        # repeat the set-up at even steps through the run, so that its median
        # spans the host's slow and fast phases as the timed samples do
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and perf_counter() - loop_start >= due:
            set_up_again()
        return [run_referenced(job, work)]

    timed = run_cycles(jobs, seconds, run_job)
    while len(setup_times) < SETUP_REPEATS:  # a run too short to reach every step
        set_up_again()
    setup_s = statistics.median(setup_times)
    by_job = {job.label: [o for o in timed if o.label == job.label] for job in jobs}

    def median_by_job(value):
        return {label: statistics.median(value(o) for o in runs) for label, runs in by_job.items()}

    rel = [o.wall_s / o.start_ref_s for o in timed]
    p90 = statistics.quantiles(rel, n=10)[8]
    # a typical cycle, each job at its median, so that one stalled process does not move it
    cycle_products = sum(median_by_job(lambda o: o.products).values())
    cycle_rel = sum(median_by_job(lambda o: o.wall_s / o.start_ref_s).values())
    walls_ms = [o.wall_s * 1e3 for o in timed]
    wall_ms_by_job = median_by_job(lambda o: o.wall_s * 1e3)
    record["setup_ms_each"] = [round(t * 1e3, 3) for t in setup_times]
    record["samples"] = len(timed)
    record["samples_beyond_p90"] = sum(r > p90 for r in rel)
    # the same figures in wall-clock units, as a user on this host waits them; not gated
    record["start_ref_ms_p50"] = round(statistics.median(o.start_ref_s * 1e3 for o in timed), 3)
    record["wall_ms_p50"] = round(statistics.median(walls_ms), 3)
    record["wall_ms_p90"] = round(statistics.quantiles(walls_ms, n=10)[8], 3)
    record["products_per_s"] = round(cycle_products / sum(wall_ms_by_job.values()) * 1e3, 4)
    record["wall_ms_p50_by_job"] = {label: round(ms, 3) for label, ms in wall_ms_by_job.items()}
    metrics = {
        "wall_rel_p50": (statistics.median(rel), "x"),
        "wall_rel_p90": (p90, "x"),
        "products_per_start": (cycle_products / cycle_rel, "1/start"),
        "peak_rss_mb_max": (max(o.maxrss_kb for o in timed) / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, warmups + timed


def in_process(job: scenarios.Job, work: Path, main) -> Outcome:
    """Call main (balloonlink.cli.main or its traced wrapper) on the job's argv."""
    out_dir = work / "out"
    argv = job.argv(work, out_dir)
    clear_products(job, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a CLI traceback is a failed call, not a harness crash
            code = f"uncaught {type(exc).__name__}: {exc}"
        except SystemExit as exc:
            code = exc.code
        elapsed = perf_counter() - start
    outcome = Outcome(job.label, argv, elapsed)
    if code != 0:
        outcome.error = f"exit {code}; stderr: {stderr.getvalue()[-STDERR_TAIL_CHARS:].strip()}"
    else:
        outcome.products, outcome.error = check_outcome(job, out_dir, stdout.getvalue())
    return outcome


def import_layer(jobs, work: Path) -> tuple[dict[str, float], list[Outcome]]:
    """Median import metrics over a few `-X importtime` CLI processes."""
    samples, outcomes = [], []
    for _ in range(IMPORTTIME_REPEATS):
        outcome = run_process(jobs[0], work, extra=("-X", "importtime"))
        outcomes.append(outcome)
        samples.append(spans.parse_importtime((work / "stderr.txt").read_text(encoding="utf-8")))
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}, outcomes


def traced(workload: str, seed: int, seconds: float, work: Path, record: dict):
    jobs = scenarios.generate(workload, seed, work)
    (work / "out").mkdir(exist_ok=True)
    imports, outcomes = import_layer(jobs, work)

    sys.path.insert(0, str(SRC))
    import balloonlink.cli as cli
    import balloonlink.exposure as exposure

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"balloonlink is not imported from {SRC}: {cli.__file__}")
    record["balloonlink_imported_from"] = cli.__file__
    for job in jobs:  # warm-up: lazy imports, caches, output directory
        outcomes.append(in_process(job, work, cli.main))

    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    per_job = {job.label: [] for job in jobs}

    def traced_call(job):
        saved = tracer.install(cli, exposure)
        try:
            tracer.reset()
            return in_process(job, work, traced_main)
        finally:
            tracer.uninstall(saved)

    def pair(job):
        # the same argv untraced and traced, back to back, alternating which goes first
        if len(per_job[job.label]) % 2:
            done, plain = traced_call(job), in_process(job, work, cli.main)
        else:
            plain, done = in_process(job, work, cli.main), traced_call(job)
        job_metrics = spans.layer_metrics(tracer)
        job_metrics["untraced_ms"], job_metrics["traced_ms"] = plain.wall_s * 1e3, done.wall_s * 1e3
        per_job[job.label].append(job_metrics)
        return [plain, done]

    outcomes += run_cycles(jobs, seconds, pair)
    cycles = len(per_job[jobs[0].label])

    def per_cycle(name):
        reduce = max if name == "coverage.union_area_peak_alloc_mb" else sum
        return statistics.median(reduce(per_job[job.label][i][name] for job in jobs) for i in range(cycles))

    metrics = {name: (value, _unit(name)) for name, value in imports.items()}
    for name in spans.LAYER_METRICS:
        metrics[name] = (per_cycle(name), _unit(name))
    points = metrics["exposure.points"][0]
    us_per_point = metrics["exposure.sweep_ms"][0] * 1e3 / points if points else 0.0
    metrics["exposure.us_per_point"] = (us_per_point, "us")
    metrics["trace.overhead_ms"] = (per_cycle("traced_ms") - per_cycle("untraced_ms"), "ms")

    record["cycles"] = cycles
    record["untraced_cycle_ms"] = round(per_cycle("untraced_ms"), 3)
    record["breakdown_ms"] = {
        label: {
            key: round(statistics.median(m.get(key, 0.0) for m in rows), 3)
            for key in sorted(set().union(*rows))
            if key.startswith("layer.") or key in ("untraced_ms", "traced_ms")
        }
        for label, rows in per_job.items()
    }
    return metrics, outcomes


def _unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def machine() -> dict:
    def cpu_model():
        with contextlib.suppress(OSError):
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        return platform.processor() or platform.machine()

    def numpy_version():
        with contextlib.suppress(metadata.PackageNotFoundError):
            return metadata.version("numpy")
        return None

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
    }


def source_tree() -> dict:
    """Commit and dirtiness of the measured tree; None when it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", "src") if commit else None
    return {"commit": commit, "src_dirty": None if dirty is None else bool(dirty)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "balloonlink" / "cli.py").is_file():
        raise RuntimeError(f"no balloonlink sources under {SRC}; run from a full checkout")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record.update(machine(), **source_tree())
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        record["bare_python_floor_ms"] = round(bare_floor_ms(work), 3)
        measure = traced if args.trace else end_to_end
        metrics, outcomes = measure(args.workload, args.seed, args.seconds, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    failures = [o for o in outcomes if o.error is not None]
    record["failures"] = [{"argv": o.argv, "error": o.error} for o in failures[:20]]
    print("record: " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_ratio: {len(failures) / len(outcomes):.6g} ({len(failures)} of {len(outcomes)} runs)")
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except Exception as exc:  # report in one line; the harness never ends in a traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno}"
        print(f"perfbench: error: {type(exc).__name__}: {exc} ({where})", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
