"""Layered benchmark of shewpt: SHE branch enumeration, candidate screening
and link steady state.

    python3 bench/run.py --workload branches|screen|link --seed N --seconds S --trace 0|1

Run from the root of a checkout; shewpt is imported from ``src/``. The
workload runs in a fresh interpreter (``worker.py``) with BLAS held to one
thread. This process then checks every output against the reference
computations (``checks.py``, ``refs.py``), prints a table, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("branches", "screen", "link")
SETUP_SAMPLES = 11  # fresh interpreters timed for setup_s, the worker included
WORKER_TIMEOUT_S = 150


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], out: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(args)}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool):
    base = ["--workload", workload, "--seed", str(seed)]
    out = os.path.join(RUNS, f"worker-{workload}-{seed}-{os.getpid()}.json")
    # one untimed start first, so that byte-compiling shewpt is not timed
    _worker(base + ["--setup-only", "1"], out)
    setups = [_worker(base + ["--setup-only", "1"], out)["setup"] for _ in range(SETUP_SAMPLES - 1)]
    main = _worker(base + ["--seconds", str(seconds), "--trace", "1" if trace else "0"], out)
    setups.append(main["setup"])
    return setups, main


# ---- report ---------------------------------------------------------------


def end_to_end(setups, main) -> dict:
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "pass_s": (statistics.median(main["pass_s"]), "s"),
        "cli_s": (statistics.median(main["cli_s"]), "s"),
        "peak_rss_mb": (main["maxrss_mb"], "MB"),
    }


def paired_overhead(main) -> float | None:
    """Median over (untraced, traced) pairs of consecutive passes of their difference."""
    times, traced = main["pass_s"], main["traced"]
    diffs = [times[i + 1] - times[i] for i in range(0, len(times) - 1, 2)
             if not traced[i] and traced[i + 1]]
    return statistics.median(diffs) if diffs else None


def per_layer(setups, main) -> dict:
    table = {
        "setup.numpy_import_s": (statistics.median(s["numpy_import_s"] for s in setups), "s"),
        "setup.shewpt_import_s": (statistics.median(s["shewpt_import_s"] for s in setups), "s"),
    }
    table.update({name: tuple(v) for name, v in main["layers"].items()})
    table["cli.output_mb"] = (statistics.median(main["cli_bytes"]) / 2**20, "MB")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "shewpt", "__init__.py")):
        print(f"no shewpt sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)

    started = time.perf_counter()
    setups, main_run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    # numpy and scipy are imported only now: a child's ru_maxrss starts from
    # the RSS of the process that started it
    import checks

    attempted, failed, wrong = checks.check(args.workload, main_run)
    metrics = per_layer(setups, main_run) if args.trace else end_to_end(setups, main_run)

    print(f"workload {args.workload}  seed {args.seed}  passes {main_run['passes']}  "
          f"trace {args.trace}  wall {time.perf_counter() - started:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if args.trace:
        measured = paired_overhead(main_run)
        print(f"  traced minus untraced pass, median of {main_run['passes'] // 2} pairs: "
              f"{measured:.4g} s (trace.overhead_s is computed from the span count)")
    print(f"  attempted {attempted}  failed {len(failed)}  wrong {len(wrong)}")
    for note in dict.fromkeys(failed):  # each distinct note once
        print(f"  failed: {note}")
    for note in dict.fromkeys(wrong):
        print(f"  WRONG: {note}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    samples = {"setup_s": [s["setup_s"] for s in setups], "pass_s": main_run["pass_s"],
               "cli_s": main_run["cli_s"], "traced": main_run["traced"]}
    if args.trace:
        samples["paired_overhead_s"] = paired_overhead(main_run)
    with open(os.path.join(RUNS, f"result-{args.workload}-{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(dict(result, samples=samples, failed_notes=failed, wrong_notes=wrong), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
