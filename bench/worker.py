"""One workload in a fresh interpreter: set-up, timed rounds, raw outputs.

run.py starts this script and reads the JSON file it writes; the checks
against the reference computations happen in run.py, so nothing here
imports scipy and the peak RSS is that of the workload alone.

    python3 bench/worker.py --workload W --seed N --setup-only 1 --out FILE
    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE

The clock for set-up starts before numpy and shewpt are imported.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402  (after the set-up clock starts)
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _options(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    return {
        "workload": opts["--workload"], "seed": int(opts["--seed"]),
        "seconds": float(opts.get("--seconds", 0)), "trace": opts.get("--trace") == "1",
        "setup_only": opts.get("--setup-only") == "1", "out": opts["--out"],
    }


def main(argv) -> int:
    opt = _options(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    t_np = time.perf_counter()
    import numpy  # noqa: F401

    t_pkg = time.perf_counter()
    import shewpt  # noqa: F401
    import shewpt.cli  # noqa: F401

    t_inputs = time.perf_counter()
    import workloads

    build, run_pass = workloads.WORKLOADS[opt["workload"]]
    inputs = build(opt["seed"])
    t_end = time.perf_counter()
    result = {"setup": {
        "setup_s": t_end - T0,
        "numpy_import_s": t_pkg - t_np,
        "shewpt_import_s": t_inputs - t_pkg,
    }}
    if not opt["setup_only"]:
        result.update(_rounds(opt, inputs, run_pass, workloads))
    _write(opt["out"], result)
    return 0


def _cli_set(commands, out_dir):
    """Run the CLI commands in-process, each into a fresh out-dir; time the set."""
    import contextlib
    import io

    from shewpt import cli

    runs = []
    start = time.perf_counter()
    for i, argv in enumerate(commands):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["--out-dir", os.path.join(out_dir, str(i)), *argv])
        runs.append({"argv": argv, "exit": code, "stderr": stderr.getvalue()})
    elapsed = time.perf_counter() - start
    return elapsed, runs


def _read_cli_outputs(runs, out_dir, outputs):
    import json

    written = 0
    for i, run in enumerate(runs):
        d = os.path.join(out_dir, str(i))
        for dirpath, _, files in os.walk(d):
            written += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        name = outputs.get(run["argv"][0])
        path = os.path.join(d, name) if name else None
        if path and os.path.exists(path):
            with open(path) as fh:
                run["output"] = json.load(fh)
    return written


def _rounds(opt, inputs, run_pass, workloads) -> dict:
    """Run rounds of passes and CLI sets until the run length is used up.

    A round is a fixed number of passes and CLI sets (``workloads.ROUND``).
    In a traced run every other pass runs with the span recorder installed,
    so traced and untraced passes interleave; the CLI sets are all traced.
    """
    import resource
    import shutil
    from contextlib import nullcontext

    from spans import Recorder, layer_table, span_cost_s

    runs_dir = os.path.join(ROOT, ".bench_runs")
    commands = workloads.CLI_COMMANDS[opt["workload"]]
    rec = Recorder()
    first_ops = None
    deterministic = True
    pass_s, traced, cli_s, cli_bytes, cli_runs = [], [], [], [], []
    passes_per_round, cli_per_round = workloads.ROUND[opt["workload"]]
    start = time.perf_counter()
    while True:
        for _ in range(passes_per_round):
            is_traced = opt["trace"] and len(pass_s) % 2 == 1
            if is_traced:
                rec.install()
            try:
                with rec.scope("pass") if is_traced else nullcontext():
                    t = time.perf_counter()
                    ops = run_pass(inputs)
                    pass_s.append(time.perf_counter() - t)
            finally:
                rec.uninstall()
            traced.append(is_traced)
            if first_ops is None:
                first_ops = ops
            elif ops != first_ops:
                deterministic = False

        for _ in range(cli_per_round):
            out_dir = os.path.join(runs_dir, f"cli-{os.getpid()}-{len(cli_s)}")
            if opt["trace"]:
                rec.install()
            try:
                with rec.scope("cli") if opt["trace"] else nullcontext():
                    elapsed, runs = _cli_set(commands, out_dir)
            finally:
                rec.uninstall()
            cli_s.append(elapsed)
            cli_bytes.append(_read_cli_outputs(runs, out_dir, workloads.CLI_OUTPUTS))
            shutil.rmtree(out_dir, ignore_errors=True)
            cli_runs.append(runs)
        if time.perf_counter() - start >= opt["seconds"] and (not opt["trace"] or len(pass_s) >= 2):
            break

    result = {
        "passes": len(pass_s), "pass_s": pass_s, "traced": traced, "cli_s": cli_s,
        "cli_bytes": cli_bytes, "cli_runs": cli_runs, "inputs": inputs, "ops": first_ops,
        "deterministic": deterministic,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if opt["trace"]:
        result["layers"] = layer_table(rec.spans, span_cost_s())
        span_path = os.path.join(runs_dir, f"spans-{opt['workload']}-{opt['seed']}.jsonl")
        rec.dump(span_path)
        result["span_file"] = span_path
    return result


def _write(path, result):
    import json

    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
