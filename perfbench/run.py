"""cpmasa benchmark: four seeded, closed-loop workloads against the public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload {corpus,search,certify,gksl} \
        --seed N --seconds S --trace {0,1}

One process runs one workload with one client in a closed loop: the next
task starts when the previous one returns. The loop runs whole rounds of
the workload's task list until the next round would end past `--seconds`
(at least one round). Each answer is checked against the ground truth its
instance was built with, outside the timed interval.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (setup_s, tasks_per_s, task_p50_ms, task_tail_ms,
peak_rss_mb). Their times are stated at a fixed machine speed, probed in
the timed thread while the tasks run (see `speed.py`); the wall-clock
values are printed beside them. With ``--trace 1`` each task of one round
runs untraced and then with the tracer installed, and the JSON object holds
the per-layer metrics.
A JSON record with the machine and every task goes to perfbench/results/.

The package is imported from src/ beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("corpus", "search", "certify", "gksl")
# set-up is measured in this many fresh processes and reported as their median
SETUP_SAMPLES = 7
# probes of the machine's speed before each set-up process and after the last
PROBES_PER_SETUP = 5
TAIL_BEYOND = 10
READY = "setup-ready"


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "cpmasa" / "__init__.py").is_file():
        _fail(f"no cpmasa package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpmasa

    if SRC.resolve() not in Path(cpmasa.__file__).resolve().parents:
        _fail(f"cpmasa imported from {cpmasa.__file__}, not from {SRC}")
    import workloads

    return workloads


def _set_up(workload: str, seed: int):
    """Import the package, build the workload's objects and run the warm-up task."""
    workloads = _import_package()
    tasks, warmup = workloads.build(workload, seed)
    warmup.check(warmup.call())
    return tasks


def _setup_sample(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed task."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(cmd + ["--setup-probe"], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != READY or code != 0:
        _fail(f"set-up probe failed (exit {code})")
    return elapsed


def _run_task(task, timed: list, call=None, speed=None):
    """Time one task from call to return, then check it; returns a task record.

    `call` replaces `task.call` for the timed part, as the traced run does.
    The time `speed` spent probing during the task is taken out of it.
    """
    probed = speed.probe_s if speed else 0.0
    started = time.perf_counter()
    try:
        outcome = (call or task.call)()
        error = None
    except Exception as exc:  # a raising task is a failed task, and the loop goes on
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - started - ((speed.probe_s - probed) if speed else 0.0)
    timed.append(latency)
    if error is None:
        error = task.check(outcome)
    return {
        "task": task.label,
        "started": started,
        "latency_s": latency,
        "failure": error,
        "planted": task.planted,
        "found": error is None and task.found(outcome),
        "report_bytes": task.report_bytes(outcome) if error is None else 0,
    }


def _tail(latencies, round_size: int):
    """Latency at the highest percentile that leaves TAIL_BEYOND tasks of a round beyond it.

    The percentile is fixed by the round size, so runs of one or several
    identical rounds report the same order statistic. With TAIL_BEYOND
    tasks or fewer in a round it is the slowest task (percentile 100).
    """
    ordered = sorted(latencies)
    if round_size <= TAIL_BEYOND:
        return ordered[-1], 100.0
    q = (round_size - TAIL_BEYOND) / round_size
    rounds = len(ordered) // round_size
    return ordered[rounds * (round_size - TAIL_BEYOND) - 1], 100.0 * q


def _machine() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _write_record(args, record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(), **record}
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def _found_fraction(records):
    """Planted searches whose masa passed the direct verdict, over planted searches; None if none."""
    planted = [rec for rec in records if rec["planted"]]
    return sum(rec["found"] for rec in planted) / len(planted) if planted else None


def _report_failures(records):
    for rec in records:
        if rec["failure"]:
            print(f"FAILED {rec['task']}: {rec['failure']}")


def _setup_samples(args, speed: Speed) -> list[tuple[float, float]]:
    """(seconds, slowness) of set-up in fresh processes, probing the machine before and after each."""
    probes = []
    for _ in range(SETUP_SAMPLES):
        for _ in range(PROBES_PER_SETUP):
            speed.probe()
        started = time.perf_counter()
        probes.append((started, _setup_sample(args.workload, args.seed)))
    for _ in range(PROBES_PER_SETUP):
        speed.probe()
    return [(elapsed, speed.slowness(start, start + elapsed)) for start, elapsed in probes]


def _closed_loop(args) -> dict:
    speed = Speed()
    setup = _setup_samples(args, speed)
    tasks = _set_up(args.workload, args.seed)
    records, timed, rounds = [], [], 0
    with speed:
        phase_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            records += [_run_task(task, timed, speed=speed) for task in tasks]
            rounds += 1
            now = time.perf_counter()
            if (now - phase_start) + (now - round_start) > args.seconds:
                break
    for rec in records:
        rec["slowness"] = speed.slowness(rec["started"], rec["started"] + rec["latency_s"])
    scaled = [rec["latency_s"] / rec["slowness"] for rec in records]
    tail, tail_pct = _tail(scaled, len(tasks))
    failed = sum(rec["failure"] is not None for rec in records)
    wall = {
        "setup_s": statistics.median(elapsed for elapsed, _ in setup),
        "tasks_per_s": len(timed) / sum(timed),
        "task_p50_ms": 1e3 * statistics.median(timed),
        "task_tail_ms": 1e3 * _tail(timed, len(tasks))[0],
    }
    metrics = {
        "setup_s": _metric(statistics.median(elapsed / slow for elapsed, slow in setup), "s"),
        "tasks_per_s": _metric(len(scaled) / sum(scaled), "1/s"),
        "task_p50_ms": _metric(1e3 * statistics.median(scaled), "ms"),
        "task_tail_ms": _metric(1e3 * tail, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "task_tail_percentile": tail_pct,
        "failed_fraction": failed / len(records),
        "found_fraction": _found_fraction(records),
        "rounds": rounds,
        "tasks_per_round": len(tasks),
        "slowness_median": statistics.median(rec["slowness"] for rec in records),
    }
    path = _write_record(args, {"metrics": metrics, "wall": wall, **extra, "setup_samples": setup,
                                "speed_samples": speed.samples, "tasks": records})
    _report_failures(records)
    for name, m in metrics.items():
        raw = f" (wall {wall[name]:.6g})" if name in wall else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{raw}")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value}")
    print(f"record: {path.relative_to(ROOT)}")
    return {"attempted": len(records), "failed": failed, "metrics": metrics}


def _traced(args) -> dict:
    from tracer import Tracer, metric_units

    tasks = _set_up(args.workload, args.seed)
    plain, traced, records, traced_records = [], [], [], []
    tracer = Tracer()
    # each task runs untraced and then traced, back to back, so that both
    # timings see the same machine speed and their difference is the overhead
    for i, task in enumerate(tasks):
        records.append(_run_task(task, plain))
        with tracer:
            traced_records.append(_run_task(task, traced, lambda: tracer.run_task(i, task.call)))
    records += traced_records
    summary = tracer.summary()
    summary["trace.overhead_s"] = sum(traced) - sum(plain)
    summary["cli.report_bytes"] = sum(rec["report_bytes"] for rec in traced_records)
    summary["found_fraction"] = _found_fraction(traced_records) or 0.0
    metrics = {name: _metric(summary[name], unit) for name, unit in metric_units().items()}
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")
    path = _write_record(args, {"metrics": metrics, "summary": summary, "tasks": records})
    _report_failures(records)
    for layer in ("masa", "linalg", "cpmaps", "gksl", "corpus", "cli"):
        print(f"{args.workload} {layer}: self {summary[layer + '.self_s']:.4f} s, "
              f"share {summary[layer + '.share']:.4f}")
    print(f"{args.workload} task.wall_s = {summary['task.wall_s']:.4f}, "
          f"trace.overhead_s = {summary['trace.overhead_s']:.4f}")
    print(f"record: {path.relative_to(ROOT)}")
    failed = sum(rec["failure"] is not None for rec in records)
    return {"attempted": len(records), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _set_up(args.workload, args.seed)
        print(READY, flush=True)
        return 0
    _import_package()
    result = _traced(args) if args.trace else _closed_loop(args)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
