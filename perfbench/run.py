"""Benchmark of the memesent CLI on seeded synthetic Memotion-like inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload w2v_stability --seed 1 --seconds 20 --trace 0

One client runs the CLI as child processes, one after another (a closed
loop). A run sets up the workload's inputs several times, then repeats
the workload's timed commands until ``--seconds`` have passed, checks
every output, and prints medians. With ``--trace 1`` it also runs the
timed commands once more in-process with spans around the program's
public functions and prints the per-layer metrics instead. The last line
of standard output is one JSON object; the exit code is 0 only when
every command and correctness check passed. ``--workload all`` runs
every workload in turn, each in a process of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS = 3  # at least this many set-ups per run ...
SETUP_S = 1.0  # ... and more, up to MAX_SETUPS, until they took this long
MAX_SETUPS = 25
RUN_BUDGET_S = 170.0  # a run must end within 180 s
POLL_S = 0.002

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Ops:
    """Counts CLI commands and correctness checks; remembers failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what} {detail}".strip())


class Child:
    """One CLI child: exit code, wall and CPU seconds, and peak RSS from
    ``os.wait4`` for this child alone.

    The child is made with ``fork``, not ``vfork`` or ``posix_spawn``:
    at exec the kernel keeps the peak RSS of the exec'ing address space
    as a floor under the new program's ``ru_maxrss``. A vfork'd child
    would report this process's peak; a forked one reports at least this
    process's current RSS, which is recorded so a check can tell.
    """

    def __init__(self, argv, cwd: Path, log: Path, deadline: float):
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "memesent.cli", *argv]
        self.argv = argv
        self.parent_rss_mb = _rss_mb()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # the child: become the CLI
            try:
                os.chdir(cwd)
                fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(fd, 1)
                os.dup2(fd, 2)
                os.execve(sys.executable, command, env)
            finally:
                os._exit(127)
        try:
            while True:
                reaped, status, usage = os.wait4(pid, os.WNOHANG)
                if reaped:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError
                time.sleep(POLL_S)
        except BaseException as exc:  # the deadline, or the benchmark is interrupted
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
        self.wall_s = time.perf_counter() - start
        self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB


def _flush(directory: Path) -> None:
    """Write the set-up's files to disk now, so that the kernel does not
    write back hundreds of MB while the timed commands run."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _rss_mb() -> float:
    """This process's current resident set, where Linux reports it."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
    }


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine, where Linux reports them."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _check(ops: Ops, wl, inputs: Path, out: Path, hashes: dict, label: str) -> None:
    from workloads import sha256

    try:
        checks, artifacts = wl.check(inputs, out)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        ops.record(f"{label}: outputs readable", False, repr(exc))
        return
    for what, ok, detail in checks:
        ops.record(f"{label}: {what}", ok, detail)
    for name, path in artifacts.items():
        hashes.setdefault(name, []).append(sha256(path) if path.is_file() else None)


def _traced(wl, inputs: Path, out: str) -> tuple[float, list[int], list]:
    """Run the timed commands in-process with spans; (wall_s, exit codes, spans)."""
    sys.path.insert(0, str(SRC))
    import memesent.cli

    if not Path(memesent.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"memesent imported from {memesent.cli.__file__}, not {SRC}")
    import layers
    from spans import Tracer

    tracer = Tracer()
    patches = layers.install(tracer)
    main = tracer.wrap("cli.main", memesent.cli.main)
    cwd = Path.cwd()
    codes = []
    try:
        os.chdir(inputs)
        with open(inputs / "traced.log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            for argv in wl.commands(out):
                codes.append(main(argv))
            wall_s = time.perf_counter() - start
    finally:
        os.chdir(cwd)
        patches.restore()
    return wall_s, codes, tracer.spans


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    from summary import median
    from workloads import sha256

    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    ops = Ops()
    hashes: dict[str, list] = {}

    setup_s = []
    while len(setup_s) < SETUPS or (sum(setup_s) < SETUP_S and len(setup_s) < MAX_SETUPS):
        k = len(setup_s)
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        for i, argv in enumerate(wl.setup(inputs, seed)):
            child = Child(argv, inputs, work / f"setup{k}.{i}.log", deadline)
            ops.record(f"setup {k}: {' '.join(argv)} exits 0", child.code == 0, f"code {child.code}")
        setup_s.append(time.perf_counter() - start)
        _flush(inputs)
        for name, path in wl.setup_artifacts(inputs).items():
            hashes.setdefault(f"setup/{name}", []).append(sha256(path) if path.is_file() else None)

    rows = wl.rows(inputs)
    reps = []
    ticks0 = _cpu_ticks()
    start = time.perf_counter()
    while not ops.failures:
        out = f"out/rep{len(reps)}"
        children = [
            Child(argv, inputs, work / f"rep{len(reps)}.{i}.log", deadline)
            for i, argv in enumerate(wl.commands(out))
        ]
        for child in children:
            ops.record(f"rep {len(reps)}: {child.argv[0]} exits 0", child.code == 0, f"code {child.code}")
            ops.record(f"rep {len(reps)}: {child.argv[0]} peak RSS is its own",
                       child.rss_mb > child.parent_rss_mb,
                       f"{child.rss_mb:.0f} MB, benchmark process {child.parent_rss_mb:.0f} MB")
        _check(ops, wl, inputs, inputs / out, hashes, f"rep {len(reps)}")
        reps.append({
            "wall_s": sum(c.wall_s for c in children),
            "cpu_s": sum(c.cpu_s for c in children),
            "peak_rss_mb": max(c.rss_mb for c in children),
        })
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or time.monotonic() + reps[-1]["wall_s"] > deadline:
            break

    ticks1 = _cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])

    result = layer_metrics = None
    if not ops.failures:
        result = {
            "wall_s": median(r["wall_s"] for r in reps),
            "rows_per_s": median(rows / r["wall_s"] for r in reps),
            "cpu_s": median(r["cpu_s"] for r in reps),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
            "setup_s": median(setup_s),
        }
    if trace and not ops.failures:
        import layers
        from spans import by_parent

        traced_wall, codes, spans = _traced(wl, inputs, "out/traced")
        for argv, code in zip(wl.commands("out/traced"), codes):
            ops.record(f"traced: {argv[0]} exits 0", code == 0, f"code {code}")
        _check(ops, wl, inputs, inputs / "out/traced", hashes, "traced")
        layer_metrics = layers.metrics(spans, traced_wall, result["wall_s"])
        (WORK / f"{wl.name}.spans.json").write_text(
            json.dumps(by_parent(spans), indent=1) + "\n", encoding="utf-8"
        )
    for name, values in hashes.items():
        ops.record(f"{name} hashes agree", None not in values and len(set(values)) == 1,
                   f"{len(set(values))} distinct")

    shutil.rmtree(work, ignore_errors=True)
    return {
        "ops": ops,
        "end_to_end": result,
        "per_layer": layer_metrics,
        "info": {
            "workload": wl.name,
            "seed": seed,
            "rows": rows,
            "setup_s_each": setup_s,
            "reps": reps,
            "cpu_steal_share": steal,
            "hashes": {name: values[0] for name, values in hashes.items()},
            "failures": ops.failures,
        },
    }


def _run_all(args) -> int:
    """Each workload of BENCHMARK.json in a fresh process, as a
    single-workload run."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    attempted = failed = 0
    metrics = {}
    for name in [w["name"] for w in benchmark["workloads"]]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += result["attempted"]
        failed += max(result["failed"], int(proc.returncode != 0))
        metrics.update({f"{name}.{key}": val for key, val in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "memesent" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'memesent'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before NumPy is first imported
    import layers
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")

    print(json.dumps({"environment": _versions()}))
    res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    ops = res["ops"]
    print(json.dumps({"run": res["info"]}))
    print(f"{args.workload}: ops {ops.attempted}  failed_ops {len(ops.failures)}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")
    units = layers.UNITS if args.trace else END_TO_END
    values = res["per_layer"] if args.trace else res["end_to_end"]
    metrics = {}
    if values is not None:
        for metric, unit in units.items():
            print(f"  {metric:<34} {values[metric]:>14.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return 0 if not ops.failures else 1


if __name__ == "__main__":
    sys.exit(main())
