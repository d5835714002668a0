"""Benchmark for lrsim: ``lrsim run`` and ``lrsim verify``, and a lie-rk4 ensemble.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-scenarios --seed 0 --seconds 55 --trace 0

Workloads (see README.md for why each was chosen):

* ``cli-scenarios`` -- ``lrsim run <file> --out <dir>`` and then
  ``lrsim verify <file>`` on each scenario file, one fresh process each;
* ``ensemble-lie``  -- build, integrate with lie-rk4 and report a seeded set
  of random scenarios in this process, through the library.

The load is closed-loop with one client: each operation starts after the
previous one ended.  ``--trace 0`` prints the end-to-end metrics.  It runs
the operations round robin for ``--seconds`` (every operation at least once)
and reports per-operation means, so that a slow phase of a shared host
moves the result less than it would move one pass.  ``--trace 1`` runs one
untraced and one traced pass in this process and prints the per-layer
metrics.  The last line of standard output is the JSON result; every output
is checked by :mod:`gate`.
"""

from __future__ import annotations

import os

# every process the benchmark starts, this one included, uses one BLAS thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("cli-scenarios", "ensemble-lie")

# The shipped files run 1000-2000 steps; a pass over all of them at full
# length takes 40-50 s, too long to repeat within one run.  Every CLI
# operation therefore passes ``--steps`` with the file's own count divided by
# this factor, which keeps each scenario's share of the pass.
STEP_DIVISOR = 8
ENSEMBLE_STEPS = 400
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150

# equivalent of the ``lrsim`` console script (``lrsim.cli:main``)
ENTRY = "import sys; from lrsim.cli import main; sys.exit(main())"

TIMING_NOTE = (
    "Timings on a shared 2-CPU host vary run to run: five subprocess passes over "
    "11 scenario files took 15.9-19.1 s, and a cold in-process pass took 14 s "
    "against 7-9 s warm. Compare medians of repeated runs, never single runs."
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_dir, tag):
    """Run one child to completion; return (wall s, exit code, max RSS MB, stdout)."""
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(errors="replace")


def cpu_now():
    """User + system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def self_rss_mb():
    """High-water resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_lrsim():
    """Import lrsim from the checkout's ``src``; return its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracer

    return tracer.lrsim_modules()


# --- CLI workloads ------------------------------------------------------------

class CliWorkload:
    """``lrsim run`` then ``lrsim verify`` on each scenario file, one fresh process each."""

    COMMANDS = ("run", "verify")

    def __init__(self, seed, work):
        self.work = work
        self.files = gen.scenario_files(ROOT / "scenarios", work / "inputs", seed)
        self.steps = []
        for path in self.files:
            with open(path) as fh:
                spec = yaml.safe_load(fh).get("integrator") or {}
            self.steps.append(max(1, int(spec.get("steps", 1000)) // STEP_DIVISOR))
        self.ops = [(command, i) for i in range(len(self.files)) for command in self.COMMANDS]
        self.seed = seed
        listing = work / "setup.json"
        listing.write_text(json.dumps([[str(p), s] for p, s in zip(self.files, self.steps)]))
        self.setup_argv = [sys.executable, str(HERE / "setup_probe.py"), "files", str(listing)]
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)

    def names(self):
        return [f"{command}:{self.files[i].name}" for command, i in self.ops]

    def argv(self, command, i, outdir=None):
        args = [command, str(self.files[i])]
        if outdir is not None:
            args += ["--out", str(outdir)]
        return args + ["--steps", str(self.steps[i])]

    def _outdir(self, command, tag):
        return self.work / "out" / tag if command == "run" else None

    def _problems(self, command, i, rc, outdir, stdout):
        if command == "run":
            return gate.run_problems(rc, outdir, self.steps[i] + 1)
        return gate.verify_problems(rc, stdout)

    def op(self, k, round_index):
        """Run operation ``k`` in a fresh process: (wall s, CPU s, max RSS MB, gate results)."""
        command, i = self.ops[k]
        tag = f"r{round_index}-{k}"
        outdir = self._outdir(command, tag)
        argv = [sys.executable, "-c", ENTRY] + self.argv(command, i, outdir)
        cpu0 = cpu_now()
        wall, rc, rss, stdout = run_child(argv, self.logs, tag)
        cpu = cpu_now() - cpu0
        attempts = [self._problems(command, i, rc, outdir, stdout)]
        if command == "run":
            if i == (self.seed + round_index) % len(self.files):
                attempts.append(self._rerun_problems(i, outdir, f"{tag}-rerun"))
            shutil.rmtree(outdir, ignore_errors=True)
        return wall, cpu, rss, attempts

    def _rerun_problems(self, i, first_outdir, tag):
        """Run file ``i`` again; its trajectory.csv must be byte-identical."""
        outdir = self._outdir("run", tag)
        argv = [sys.executable, "-c", ENTRY] + self.argv("run", i, outdir)
        _, rc, _, _ = run_child(argv, self.logs, tag)
        problems = self._problems("run", i, rc, outdir, "")
        first = first_outdir / "trajectory.csv"
        if not first.is_file():
            problems.append(f"first run of {self.files[i].name} wrote no trajectory.csv")
        elif not problems and first.read_bytes() != (outdir / "trajectory.csv").read_bytes():
            problems.append(f"rerun of {self.files[i].name}: trajectory.csv differs")
        shutil.rmtree(outdir, ignore_errors=True)
        return problems

    def inprocess_pass(self, mods, tracer=None):
        """One pass through ``lrsim.cli.main`` in this process; (wall, problems)."""
        main = mods["cli"].main
        problems = []
        t0 = time.perf_counter()
        for k, (command, i) in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = k
            outdir = self._outdir(command, f"in-{k}")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = main(self.argv(command, i, outdir))
                except Exception as exc:  # a traceback exits 1 from the console script
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    rc = 1
            problems.append(self._problems(command, i, rc, outdir, buf.getvalue()))
        wall = time.perf_counter() - t0
        shutil.rmtree(self.work / "out", ignore_errors=True)
        return wall, problems

    def warm_up(self, mods):
        i = int(np.argmin(self.steps))
        with contextlib.redirect_stdout(io.StringIO()):
            mods["cli"].main(self.argv("run", i, self._outdir("run", "warm")))
        shutil.rmtree(self.work / "out", ignore_errors=True)


# --- library workload ---------------------------------------------------------

class EnsembleWorkload:
    """Random lie-rk4 scenarios built, integrated and reported in this process."""

    def __init__(self, seed, work):
        self.members = gen.ensemble_members(seed, ENSEMBLE_STEPS)
        self.work = work
        listing = work / "setup.json"
        work.mkdir(parents=True, exist_ok=True)
        listing.write_text(json.dumps(self.members))
        self.setup_argv = [sys.executable, str(HERE / "setup_probe.py"), "dicts", str(listing)]
        self._mods = None

    def names(self):
        return [name for name, _ in self.members]

    def mods(self):
        if self._mods is None:
            self._mods = load_lrsim()
        return self._mods

    def member(self, mods, name, data):
        try:
            s = mods["scenario"].build_scenario(data, name=name)
            traj = mods["integrators"].integrate(s.system, s.initial, s.integrator)
            drift = mods["diagnostics"].conservation_report(traj, ["energy"])[0].max_rel_drift
            constraints = mods["diagnostics"].constraint_report(traj)
        except Exception as exc:
            return [f"{type(exc).__name__}: {exc}"]
        return gate.member_problems(drift, constraints)

    def warm_up(self, mods):
        name, data = self.members[0]
        short = dict(data, integrator=dict(data["integrator"], steps=10))
        self.member(mods, name, short)

    def op(self, i, round_index):
        """Run member ``i``: (wall s, CPU s, max RSS MB, gate results)."""
        name, data = self.members[i]
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        problems = self.member(self.mods(), name, data)
        wall = time.perf_counter() - t0
        return wall, cpu_now() - cpu0, self_rss_mb(), [problems]

    def inprocess_pass(self, mods, tracer=None):
        problems = []
        t0 = time.perf_counter()
        for i, (name, data) in enumerate(self.members):
            if tracer is not None:
                tracer.op_id = i
            problems.append(self.member(mods, name, data))
        return time.perf_counter() - t0, problems


def make_workload(name, seed, work):
    if name == "cli-scenarios":
        return CliWorkload(seed, work)
    return EnsembleWorkload(seed, work)


# --- environment record -------------------------------------------------------

def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment():
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "note": TIMING_NOTE,
    }


# --- runs ---------------------------------------------------------------------

def measure_setup(workload, repeats):
    walls, failed = [], 0
    for r in range(repeats):
        wall, rc, _, _ = run_child(workload.setup_argv, workload.work, f"setup{r}")
        walls.append(wall)
        failed += rc != 0
    return walls, failed


def timed_run(workload, seconds):
    setups, setup_failed = measure_setup(workload, SETUP_REPEATS)
    if isinstance(workload, EnsembleWorkload):
        workload.warm_up(workload.mods())
    count = len(workload.names())
    walls = [[] for _ in range(count)]
    cpus = [[] for _ in range(count)]
    attempts = []
    rss = self_rss_mb()
    t0 = time.perf_counter()
    started = 0
    # Round robin over the operations.  Every operation runs at least once; no
    # operation starts that its own median says would end past the window.
    while started < count or (
            time.perf_counter() - t0 + statistics.median(walls[started % count]) <= seconds):
        i = started % count
        wall, cpu, op_rss, op_attempts = workload.op(i, started // count)
        walls[i].append(wall)
        cpus[i].append(cpu)
        rss = max(rss, op_rss)
        attempts += op_attempts
        started += 1
    attempted = len(attempts) + len(setups)
    failed = sum(1 for a in attempts if a) + setup_failed
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.fmean(w) for w in walls),
        # every operation weighs the same, however many samples it got
        "op_s.p50": statistics.median(statistics.fmean(w) for w in walls),
        "cpu_s": sum(statistics.fmean(c) for c in cpus),
        "peak_rss_mb": rss,
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {
        "operations_run": started,
        "window_s": time.perf_counter() - t0,
        "setup_s_samples": setups,
        "op_s_samples": dict(zip(workload.names(), walls)),
        "op_cpu_s_samples": dict(zip(workload.names(), cpus)),
        "fail_frac": failed / attempted,
        "problems": [a for a in attempts if a],
    }
    units = dict(END_TO_END)
    return attempted, failed, {n: (v, units[n]) for n, v in metrics.items()}, detail


def traced_run(workload, seed, name):
    import tracer as tracing

    mods = load_lrsim()
    workload.warm_up(mods)
    untraced_wall, problems = workload.inprocess_pass(mods)
    tr = tracing.Tracer()
    tr.install(mods)
    try:
        traced_wall, traced_problems = workload.inprocess_pass(mods, tr)
    finally:
        tr.uninstall()
    problems += traced_problems
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tr.save(WORK / "results" / f"spans-{name}-seed{seed}.npz")
    values = tr.layer_metrics(traced_wall, untraced_wall)
    metrics = {n: (values[n], unit) for n, unit, _ in tracing.layer_metric_specs()}
    detail = {"spans": len(tr.start), "problems": [p for p in problems if p]}
    return len(problems), sum(1 for p in problems if p), metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lrsim" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no lrsim sources under {ROOT}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    env = environment()
    work = WORK / f"{args.workload}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, work)
        if args.trace:
            attempted, failed, metrics, detail = traced_run(workload, args.seed, args.workload)
        else:
            attempted, failed, metrics, detail = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"operations={len(workload.names())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for problem in detail["problems"]:
        print(f"  FAILED: {problem}")
    print("environment " + json.dumps(env))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "attempted": attempted, "failed": failed,
              "environment": env, "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
