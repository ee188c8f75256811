"""Benchmark of the socsqueeze CLI: four workloads, timed end to end and per layer.

Run from the repository root; the package is found under src/:

    python3 perfbench/run.py --workload squeeze-ed --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all

A run repeats whole rounds of its workload until --seconds have passed.  A
round runs each of the workload's `socsqueeze run` invocations once, each
in a fresh process, and then checks every output file.  With --trace 0 the
run reports the end-to-end metrics of BENCHMARK.json: each invocation's
median over the rounds, summed over the round's invocations (the peak RSS
takes their largest); with --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is one JSON object;
everything else the run leaves is under .perfbench-out/.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import spans
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
SPANS_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans.py")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# imports the package and loads the workload's configs, then prints the clock
SETUP_PROBE = (
    "import sys, time\n"
    "import socsqueeze.cli\n"
    "from socsqueeze.config import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
    "print(repr(time.perf_counter()))\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(cmd, log_path, timeout):
    """Run a command to its end; returns (wall s, cpu s, peak RSS MB, exit code).

    CPU and peak RSS come from wait4, so they cover the process and every
    worker it reaped.  The process gets its own session, and on timeout the
    whole group is killed.
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def setup_time(workload):
    """Seconds from spawning an interpreter until the package is imported and
    the workload's configs are loaded."""
    paths = [inv.path for inv in workload.invocations]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, *paths], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - start


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


class Run:
    """One benchmark run of a workload: its directory, references and rounds."""

    def __init__(self, workload, seed, trace, deadline):
        self.workload = workload
        self.deadline = deadline
        self.dir = os.path.join(OUT_ROOT, f"{workload.name}-seed{seed}-trace{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "logs"))
        self.prepared = workloads.prepare(workload)
        self.rounds = []
        self.problems = []

    def round(self, traced):
        """Run every invocation once, then check its outputs."""
        index = len(self.rounds)
        spans_dir = os.path.join(self.dir, "spans", f"round{index:02d}")
        if traced:
            os.makedirs(spans_dir)
        walls, cpus, rsss, outs = {}, {}, {}, {}
        for inv in self.workload.invocations:
            out = outs[inv.label] = os.path.join(self.dir, "out", inv.label)
            shutil.rmtree(out, ignore_errors=True)
            if traced:
                cmd = [sys.executable, SPANS_SCRIPT, spans_dir, self.workload.name, inv.label,
                       "--", *inv.argv(out)]
            else:
                cmd = [sys.executable, "-m", "socsqueeze.cli", *inv.argv(out)]
            log = os.path.join(self.dir, "logs", f"{inv.label}.log")
            wall, c, r, code = run_process(cmd, log, self.deadline - time.perf_counter())
            walls[inv.label], cpus[inv.label], rsss[inv.label] = wall, c, r
            if code != 0:
                self.problems.append(f"round {index}: {inv.label} exited with {code}; see {log}")
        attempted = completed = 0
        for inv in self.workload.invocations:
            attempted += workloads.expected_operations(inv)
            ok, problems = workloads.check(inv, outs[inv.label], self.prepared)
            completed += ok
            self.problems += [f"round {index}: {p}" for p in problems]
        result = {"traced": traced, "wall_s": walls, "cpu_s": cpus, "rss_mb": rsss,
                  "attempted": attempted, "failed": attempted - completed}
        if traced:
            result["layers"] = spans.summarise(spans.load_spans(spans_dir), walls)
            result["layers"]["io.bytes"] = sum(_dir_bytes(o) for o in outs.values())
        self.rounds.append(result)


def _summed_median(rounds, key):
    """Each invocation's median over the rounds, summed over the invocations."""
    return sum(statistics.median(r[key][label] for r in rounds) for label in rounds[0][key])


def measure(workload, seed, seconds, trace):
    """Whole cycles of rounds until ``seconds`` have passed; returns (result dict, run).

    The last cycle may end after ``seconds``, so that a run holds at least
    three rounds whenever a round takes under half of ``seconds``.
    """
    start = time.perf_counter()
    run = Run(workload, seed, trace, start + RUN_LIMIT_S)
    metrics = {}
    if not trace:
        metrics["setup_s"] = statistics.median(setup_time(workload)
                                               for _ in range(SETUP_SAMPLES))
    cycle = (False, True) if trace else (False,)
    t0 = time.perf_counter()
    cycles = 0
    while True:
        for traced in cycle:
            run.round(traced)
        cycles += 1
        elapsed = time.perf_counter() - t0
        remaining = run.deadline - time.perf_counter()
        if elapsed >= seconds or elapsed / cycles > remaining:
            break
    plain = [r for r in run.rounds if not r["traced"]]
    if trace:
        traced = [r for r in run.rounds if r["traced"]]
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            # counts stay whole numbers: take a sample rather than a mean of two
            mid = statistics.median_low if isinstance(values[0], int) else statistics.median
            metrics[name] = mid(values)
        metrics["trace.overhead_s"] = (_summed_median(traced, "wall_s")
                                       - _summed_median(plain, "wall_s"))
    else:
        metrics["run_s"] = _summed_median(plain, "wall_s")
        metrics["cpu_s"] = _summed_median(plain, "cpu_s")
        metrics["peak_rss_mb"] = max(statistics.median(r["rss_mb"][label] for r in plain)
                                     for label in plain[0]["rss_mb"])
    return {
        "correct": not run.problems,
        "attempted": sum(r["attempted"] for r in run.rounds),
        "failed": sum(r["failed"] for r in run.rounds),
        "metrics": metrics,
    }, run


def environment():
    """What the timings and the output bytes depend on."""
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {"name": dep.get("name"), "version": dep.get("version")}
        except (KeyError, TypeError, ValueError):
            return None

    git = {"sha": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def out(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        git = {"sha": out("rev-parse", "HEAD") or None,
               "dirty": bool(out("status", "--porcelain", "--untracked-files=no"))}
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": git,
    }


def select(result, specs):
    """Metrics named in BENCHMARK.json, in its order and with its units."""
    missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]}
            for s in specs}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded with the result; no workload input depends on it")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "socsqueeze", "cli.py")):
        print(f"no socsqueeze package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the Gaussian checks call the package's backend

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.workload == "all":
        jobs = [(name, t) for name in workloads.WORKLOADS for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in jobs:
        result, run = measure(workloads.WORKLOADS[name], args.seed, args.seconds, trace)
        metrics = select(result, bench["per_layer" if trace else "end_to_end"])
        for problem in run.problems:
            print(f"{name}: CHECK FAILED {problem}", file=sys.stderr)
        print(f"{name} trace={trace}: {len(run.rounds)} rounds, {result['attempted']} "
              f"operations, {result['failed']} failed, correct={result['correct']}")
        for metric, v in metrics.items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
        with open(os.path.join(run.dir, "result.json"), "w") as fh:
            json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                       "trace": trace, "environment": env, "rounds": run.rounds,
                       "problems": run.problems, **result, "metrics": metrics}, fh, indent=1)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(metrics if len(jobs) == 1 else
                                   {f"{name}/{k}": v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
