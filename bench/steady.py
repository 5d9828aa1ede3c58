"""Steadiness of the filterlab benchmark: two sets of repeated runs of one commit.

Usage, from the repository root:

    python3 bench/steady.py               # both sets, every workload
    python3 bench/steady.py --overhead    # traced against untraced runs

Every run is a fresh ``bench/run.py`` process with its own seed: set 1 uses
seeds 1..10 and set 2 seeds 11..20.  Within a set each workload makes its ten
runs back to back, then the next workload starts.  For each workload and
end-to-end metric the command prints, per set, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median``, then the change of the second median against the
first.  A metric is ``ok`` when every spread but that of ``setup_s`` stays
within a third of its bound in ``BENCHMARK.json`` and the medians move by
less than the bound.  The share of failed operations must be identical in
both sets.  Steal time is read from ``/proc/stat`` where it exists.

``--overhead`` alternates untraced and traced runs of each workload on seed
1 (three of each) and prints the median traced ``pass_s`` over the
median untraced one, and whether every count agreed across the traced runs.

Results also go to ``--out`` as JSON (by default under ``.bench_work/``).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("laws", "transport", "certify", "cli")
SETS, RUNS, PAIRS = 2, 10, 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = wall
    found = re.search(r"passes=(\d+) pass_s=([0-9.]+)", done.stderr)
    result["passes"] = int(found.group(1))
    result["stderr_pass_s"] = float(found.group(2))
    return result


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return ticks[7], sum(ticks[:8])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def steadiness(args, spec) -> dict:
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    seconds = args.seconds or spec.get("run_seconds", 10)
    sets = []
    before = cpu_ticks()
    for k in range(SETS):
        runs = {w: [] for w in WORKLOADS}
        for w in WORKLOADS:
            for i in range(RUNS):
                seed = k * RUNS + i + 1
                r = run_once(w, seed, seconds, 0)
                runs[w].append(r)
                print(f"set {k + 1} seed {seed:3d} {w:9s} passes={r['passes']:3d} "
                      + " ".join(f"{n}={v['value']:.4f}" for n, v in r["metrics"].items())
                      + f" failed={r['failed']}/{r['attempted']} run={r['run_wall_s']:.1f}s",
                      flush=True)
        sets.append(runs)
    after = cpu_ticks()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])

    report = {"seconds": seconds, "runs": RUNS, "steal_share": steal, "workloads": {}}
    ok = True
    print(f"\nrun_seconds={seconds} runs per set={RUNS} steal share="
          f"{'n/a' if steal is None else f'{steal:.2%}'}")
    for w in WORKLOADS:
        rows = {}
        shares = [sorted({r["failed"] / r["attempted"] for r in s[w]}) for s in sets]
        print(f"\n{w}: failed share per set {shares}, run wall "
              + ", ".join(f"{statistics.median(r['run_wall_s'] for r in s[w]):.1f} s"
                          for s in sets))
        if any(sh != shares[0] for sh in shares) or any(len(sh) != 1 for sh in shares):
            ok = False
            print("  FAILED SHARE DIFFERS")
        for name in sets[0][w][0]["metrics"]:
            per_set = [summary([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            bound = bounds.get(name, {}).get("bound")
            shift = per_set[-1]["median"] / per_set[0]["median"] - 1.0
            verdict = "-"
            if bound is not None:
                spread_ok = name == "setup_s" or all(p["spread"] <= bound / 3 for p in per_set)
                verdict = "ok" if spread_ok and abs(shift) <= bound else "NOT STEADY"
                ok = ok and verdict == "ok"
            rows[name] = {"sets": per_set, "shift": shift, "bound": bound, "verdict": verdict}
            cells = "  ".join(f"{p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}] "
                              f"{p['spread']:6.2%}" for p in per_set)
            print(f"  {name:12s} {cells}  shift {shift:+.2%}  bound {bound}  {verdict}")
        report["workloads"][w] = {"failed_share": shares, "metrics": rows,
                                  "raw": [[r for r in s[w]] for s in sets]}
    report["ok"] = ok
    print("\nall steady" if ok else "\nNOT all steady")
    return report


def overhead(args, spec) -> dict:
    """Untraced and traced runs of seed 1, alternated so that drift of the
    host's speed falls on both alike."""
    seconds = args.seconds or spec.get("run_seconds", 10)
    report = {}
    for w in WORKLOADS:
        plain, traced = [], []
        for _ in range(PAIRS):
            plain.append(run_once(w, 1, seconds, 0))
            traced.append(run_once(w, 1, seconds, 1))
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        repeat = all(c == counts[0] for c in counts)
        u = statistics.median(r["stderr_pass_s"] for r in plain)
        t = statistics.median(r["stderr_pass_s"] for r in traced)
        report[w] = {"untraced_pass_s": [r["stderr_pass_s"] for r in plain],
                     "traced_pass_s": [r["stderr_pass_s"] for r in traced],
                     "overhead": t / u, "counts_repeat": repeat,
                     "per_layer": traced[0]["metrics"]}
        print(f"{w:9s} untraced pass_s {u:.4f}  traced {t:.4f}  ratio {t / u:.3f}  "
              f"counts repeat: {repeat}", flush=True)
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--overhead", action="store_true",
                   help="measure tracing overhead instead of steadiness")
    p.add_argument("--out", default=None, help="JSON file for the results")
    args = p.parse_args(argv)
    spec_file = Path("BENCHMARK.json")
    spec = json.loads(spec_file.read_text()) if spec_file.is_file() else {}
    if args.overhead:
        report = overhead(args, spec)
        ok = True
    else:
        report = steadiness(args, spec)
        ok = report["ok"]
    out = Path(args.out or f".bench_work/{'overhead' if args.overhead else 'steady'}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"results written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
