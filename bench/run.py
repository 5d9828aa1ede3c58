"""filterlab benchmark: run one workload for a fixed time and report metrics.

Usage, from the repository root:

    python3 bench/run.py --workload laws --seed 1 --seconds 20 --trace 0

A run is one closed loop with one client.  It measures set-up in fresh
interpreters (the first of which also runs one pass and reads the program's
peak resident set), builds the workload's inputs from ``--seed``, computes the
references, runs one untimed warm-up pass and then whole timed passes until
``--seconds`` have gone by.  Every output is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``pass_s``, ``pass_cpu_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the per-layer ones from ``tracer.py``.  Per-job medians go to
standard error.
"""

import os

# one BLAS/OpenMP thread, here and in every child, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Mismatch  # noqa: E402

WORKLOAD_NAMES = ("laws", "transport", "certify", "cli")
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rss-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args, rss_pass: bool = False) -> tuple[float, int]:
    """Seconds from spawning a fresh interpreter to the workload's first job.

    The child imports filterlab, builds the workload's models and inputs and
    prints ``time.monotonic()``, a clock shared by all processes.  With
    ``rss_pass`` it then runs one pass, unchecked, and prints its high-water
    resident set in KB: a process that computes no references, so that their
    memory cannot hide the program's.  Otherwise the second value is 0.
    """
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-probe"] + (["--rss-pass"] if rss_pass else [])
    t0 = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    ready, rss_kb = done.stdout.split() if rss_pass else (done.stdout, 0)
    return float(ready) - t0, int(rss_kb)


class Pass:
    """Wall and CPU time of one pass, with per-job times and layer totals."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.jobs = []
        self.layers = {}
        self.child_rss_kb = 0


class Runner:
    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.correct = True

    def attempt(self, job, into: Pass | None = None):
        """Run one operation and check its output.

        An operation fails when it raises or its output is wrong; either way
        the run goes on.  ``correct`` turns false only when a check itself
        breaks, so that an output went unverified.
        """
        gc.collect()
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        ran = True
        try:
            out = job.run()
        except Exception:
            out, ran = None, False
            self.failed += 1
            print(f"FAILED {job.name}:\n{traceback.format_exc()}", file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if ran:
            try:
                job.check(out)
            except Mismatch as exc:
                self.failed += 1
                print(f"WRONG {job.name}: {exc}", file=sys.stderr)
            except Exception:
                self.failed += 1
                self.correct = False
                print(f"CHECK BROKE {job.name}:\n{traceback.format_exc()}", file=sys.stderr)
        if into is None:
            return
        into.wall += wall
        into.cpu += cpu + getattr(out, "child_cpu_s", 0.0)
        into.jobs.append(wall)
        into.child_rss_kb = max(into.child_rss_kb, getattr(out, "maxrss_kb", 0))
        for key, value in getattr(out, "trace", {}).items():
            into.layers[key] = into.layers.get(key, 0) + value

    def one_pass(self) -> Pass:
        p = Pass()
        for job in self.wl.jobs:
            self.attempt(job, p)
        if self.tracer is not None:
            for key, value in self.tracer.take().items():
                p.layers[key] = p.layers.get(key, 0) + value
        return p


def median(values):
    return statistics.median(values) if values else 0.0


def run(args, workdir: Path) -> int:
    # for cli the peak is that of its largest child, read in the warm-up pass
    probes = [setup_probe(args, rss_pass=i == 0 and args.workload != "cli" and not args.trace)
              for i in range(SETUP_PROBES)]
    setup = [ready for ready, _ in probes]

    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload == "cli":
        wl = WORKLOADS["cli"](args.seed, workdir, traced=bool(args.trace))
    else:
        wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.prepare()
    runner = Runner(wl, tracing.install() if args.trace and args.workload != "cli" else None)
    for job in wl.once():
        runner.attempt(job)
    warm = runner.one_pass()  # untimed
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(runner.one_pass())

    names = [job.name for job in wl.jobs]
    for i, name in enumerate(names):
        job_s = median([p.jobs[i] for p in passes if len(p.jobs) == len(names)])
        print(f"{name:48s} {job_s:.4f} s", file=sys.stderr)
    pass_s = median([p.wall for p in passes])
    print("pass walls " + " ".join(f"{p.wall:.3f}" for p in passes), file=sys.stderr)
    print(f"passes={len(passes)} pass_s={pass_s:.4f} trace={args.trace}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name in tracing.metric_names():
            value = median([p.layers.get(name, 0) for p in passes])
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": value, "unit": unit}
    else:
        rss_kb = warm.child_rss_kb if args.workload == "cli" else probes[0][1]
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "pass_cpu_s": {"value": median([p.cpu for p in passes]), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "filterlab" / "__init__.py").is_file():
        print("bench: src/filterlab not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            from workloads import WORKLOADS

            wl = WORKLOADS[args.workload](args.seed, workdir)
            print(time.monotonic())
            if args.rss_pass:
                # the high-water mark of set-up and one whole pass: later
                # passes repeat the same work, and the allocator's growth over
                # them depends only on how many passes fit into --seconds
                for job in wl.jobs:
                    gc.collect()
                    try:
                        job.run()
                    except Exception:
                        pass  # counted where it is checked, in the run itself
                print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
