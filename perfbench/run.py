"""cqec benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): small-register, six-qubit, cli.  Every op's
output is checked against references computed apart from cqec.  With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 a traced run reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full result (with
seed, machine, versions and source digest) goes to
perfbench/out/results/.
"""

import argparse
import hashlib
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes per run for setup_s / first_op_s (median reported),
# spread over the run, and for cli.import_s in traced runs.
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
# One BLAS thread per process: the largest matrix product is 64x64, where
# threads add scheduling noise and no speed, and `cqec scan` already runs
# one worker per core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 60.0
# The console script `cqec` is exactly this entry point.
CQEC_MAIN = "import sys; from cqec.cli import main; sys.exit(main())"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from worker import SetupSchedule, closed_loop, setup_sample  # noqa: E402


def run_process(argv, cwd, timeout=COMMAND_TIMEOUT_S):
    """Run argv to its end; return (seconds, exit code, peak RSS in KiB of the
    process and the children it waited for, stdout, stderr)."""
    out_path, err_path = Path(cwd) / ".stdout", Path(cwd) / ".stderr"
    with open(out_path, "w") as out_fh, open(err_path, "w") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out_fh, stderr=err_fh)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, proc.returncode, usage.ru_maxrss, out_path.read_text(),
            err_path.read_text())


def worker(mode, *args):
    return [sys.executable, str(HERE / "worker.py"), mode, *map(str, args)]


# ---------------------------------------------------------------------------
# register workloads
# ---------------------------------------------------------------------------


def register_loop(name, seed, seconds, trace, refs_path, run_dir):
    result_path = run_dir / "loop.json"
    argv = worker("loop", "--workload", name, "--seed", seed, "--seconds", seconds,
                  "--trace", trace, "--trace-dir", run_dir / "trace", "--refs", refs_path,
                  "--result", result_path, "--setups", 0 if trace else SETUP_REPEATS)
    _, code, _, _, err = run_process(argv, run_dir, timeout=max(seconds, 0.0) + 120.0)
    if code != 0:
        raise RuntimeError(f"loop process exit code {code}: {err.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------


def cli_command(cmd, run_dir, traced=False, op_id=0):
    """Run one `cqec` command as a fresh process and check its output.
    Returns (seconds, peak RSS KiB, output bytes, failures)."""
    import checks

    out_dir = run_dir / "cmd" / cmd["name"]
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = [a.format(out=out_dir) for a in cmd["argv"]]
    if traced:
        full = worker("cli-traced", "--trace-dir", run_dir / "trace", "--op", op_id, "--",
                      *argv)
    else:
        full = [sys.executable, "-c", CQEC_MAIN, *argv]
    elapsed, code, rss, _, err = run_process(full, run_dir)
    fails = checks.check_exit(cmd["name"], code, err)
    files = [p for p in out_dir.iterdir() if p.is_file()]
    nbytes = sum(p.stat().st_size for p in files)
    if not fails:
        path = out_dir / cmd["file"]
        try:
            text = path.read_text()
            if "grid" in cmd:
                fit = Path(str(path) + ".fit.json").read_text()
                fails = checks.check_scan(cmd["name"], cmd["scenario"], cmd["grid"], text, fit)
            elif cmd["name"] == "fig-3":
                fails = checks.check_fig3(cmd["name"], text)
            elif cmd["name"] == "eig":
                fails = checks.check_eig(cmd["name"], text)
            else:
                fails = checks.check_graph(cmd["name"], text, 100.0)
        except OSError as exc:
            fails = [f"{cmd['name']}: missing output ({exc})"]
    return elapsed, rss, nbytes, fails


def cli_setup_sample(run_dir, with_first_op=True):
    """A fresh `import cqec.cli`, then (for setup_s/first_op_s) the first
    command; [setup_s, first_op_s, failures, peak RSS KiB]."""
    sample = setup_sample(worker("setup", "--workload", "cli"))
    if with_first_op and sample[0] is not None:
        elapsed, peak, _, fails = cli_command(workloads.CLI[0], run_dir)
        sample = [sample[0], elapsed, fails, peak]
    return sample


def cli_loop(seconds, trace, run_dir):
    """The closed loop of the cli workload, one fresh `cqec` process per op."""
    rss, nbytes = [], []

    def run_one(cmd, traced, op_id):
        elapsed, peak, size, fails = cli_command(cmd, run_dir, traced, op_id)
        if not traced:
            rss.append(peak)
        if traced or not trace:
            nbytes.append(size)
        return elapsed, fails

    setups = SetupSchedule(0 if trace else SETUP_REPEATS, seconds,
                           lambda: cli_setup_sample(run_dir))
    records, fails, pass_s = closed_loop(workloads.CLI, seconds, trace, setups, run_one)
    rss += [sample[3] for sample in setups.samples if len(sample) > 3]
    return {"setups": setups.samples, "records": records, "failures": fails,
            "peak_rss_kb": max(rss), "pass_s": pass_s, "output_bytes": nbytes}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(loop):
    setup = [s[0] for s in loop["setups"] if s[0] is not None]
    first = [s[1] for s in loop["setups"] if s[1] is not None]
    lat = [r[1] for r in loop["records"]]
    done = sum(1 for r in loop["records"] if r[3])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "first_op_s": (statistics.median(first), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "ops_per_s": (done / sum(lat), "1/s"),
        "peak_rss_mb": (loop["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(import_s, loop, trace_dir):
    from tracing import layer_totals, load_records

    totals = layer_totals(*load_records(trace_dir))
    n_ops = sum(1 for r in loop["records"] if r[2])

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0) / n_ops

    def rate(layer):
        t = totals.get(layer)
        return t["count"] / t["s"] if t and t["s"] > 0 else 0.0

    sizes = loop.get("output_bytes", [])
    m = {
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.output_bytes": (sum(sizes) / len(sizes) if sizes else 0.0, "B"),
        "analysis.pool.starts": (get("analysis.pool", "calls"), "count"),
        "analysis.pool.s": (get("analysis.pool", "s"), "s"),
        "analysis.scan.s": (get("analysis.scan", "s"), "s"),
        "analysis.fit.calls": (get("analysis.fit", "calls"), "count"),
        "analysis.fit.s": (get("analysis.fit", "s"), "s"),
        "analysis.match_spectrum.s": (get("analysis.match_spectrum", "s"), "s"),
        "analysis.observables.samples": (get("analysis.observables", "count"), "count"),
        "analysis.observables.s": (get("analysis.observables", "s"), "s"),
        "dynamics.integrate.calls": (get("dynamics.integrate", "calls"), "count"),
        "dynamics.integrate.s": (get("dynamics.integrate", "s"), "s"),
        "dynamics.integrate.self_s": (get("dynamics.integrate", "self_s"), "s"),
        "dynamics.propagate_linear.calls": (get("dynamics.propagate_linear", "calls"), "count"),
        "dynamics.propagate_linear.s": (get("dynamics.propagate_linear", "s"), "s"),
        "dynamics.step_weak_map.s": (get("dynamics.step_weak_map", "s"), "s"),
        "dynamics.step_weak_map.cycles_per_s": (rate("dynamics.step_weak_map"), "1/s"),
        "dynamics.jump_monte_carlo.s": (get("dynamics.jump_monte_carlo", "s"), "s"),
        "dynamics.jump_monte_carlo.trajectories_per_s":
            (rate("dynamics.jump_monte_carlo"), "1/s"),
        "codes_and_maps.total_generator.s": (get("codes_and_maps.total_generator", "s"), "s"),
        "codes_and_maps.rhs.calls": (get("codes_and_maps.rhs", "calls"), "count"),
        "codes_and_maps.rhs.s": (get("codes_and_maps.rhs", "s"), "s"),
        "codes_and_maps.apply_correction.s": (get("codes_and_maps.apply_correction", "s"), "s"),
        "codes_and_maps.apply_kraus.calls": (get("codes_and_maps.apply_kraus", "calls"), "count"),
        "codes_and_maps.apply_kraus.s": (get("codes_and_maps.apply_kraus", "s"), "s"),
        "reduced_model.build_reduced_matrix.s":
            (get("reduced_model.build_reduced_matrix", "s"), "s"),
        "tensor_core.partial_trace_bath.calls":
            (get("tensor_core.partial_trace_bath", "calls"), "count"),
    }
    return m, totals


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance():
    import numpy
    import scipy

    uname = platform.uname()
    return {
        "machine": {"system": uname.system, "release": uname.release,
                    "arch": uname.machine, "cpus": os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_env": BLAS_ENV,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cqec" / "__init__.py").is_file():
        print(f"error: no cqec sources under {SRC}", file=sys.stderr)
        return 2
    # every process the benchmark starts runs cqec from src/ of this checkout
    os.environ.update(BLAS_ENV, PYTHONPATH=str(SRC))

    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    run_dir = OUT / "runs" / label
    run_dir.mkdir(parents=True)
    try:
        result = measure(args, run_dir)
    finally:
        if (run_dir / "trace").is_dir():
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            with open(traces / f"{label}.jsonl", "w") as fh:
                for path in sorted((run_dir / "trace").glob("*.jsonl")):
                    fh.write(path.read_text())
        shutil.rmtree(run_dir, ignore_errors=True)

    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, finished=stamp, **provenance())
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{label}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for name, (value, unit) in result["metrics_table"].items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if args.trace:
        print(f"tracing overhead: {100.0 * result['tracing_overhead']:+.1f}% "
              "(traced passes against untraced passes of the same ops)")
    for msg in result["failures"][:20]:
        print("FAILED:", msg)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics_table"].items()},
    }))
    return 0


def measure(args, run_dir):
    is_cli = args.workload == "cli"
    refs_path = run_dir / "refs.json"
    if not is_cli:
        with open(refs_path, "w") as fh:
            json.dump(workloads.references(workloads.WORKLOADS[args.workload]), fh)
    # fill the bytecode and file caches once, as any earlier use would
    run_process(worker("setup", "--workload", "cli"), run_dir)

    import_s = []
    if args.trace:
        import_s = [cli_setup_sample(run_dir, with_first_op=False)[0]
                    for _ in range(IMPORT_REPEATS)]
    if is_cli:
        loop = cli_loop(args.seconds, args.trace, run_dir)
    else:
        loop = register_loop(args.workload, args.seed, args.seconds, args.trace, refs_path,
                             run_dir)

    setup_fails = [s[2] for s in loop["setups"]]
    failures = [m for f in setup_fails for m in f] + loop["failures"]
    failed = sum(1 for f in setup_fails if f) + sum(1 for r in loop["records"] if not r[3])
    attempted = len(setup_fails) + len(loop["records"])
    result = {"attempted": attempted, "failed": failed, "correct": failed == 0,
              "failures": failures,
              "passes": sum(1 for r in loop["records"] if not r[2])
              // len(workloads.WORKLOADS[args.workload]),
              "op_seconds": {}}
    for name, secs, traced, _ in loop["records"]:
        result["op_seconds"].setdefault(name + (" (traced)" if traced else ""), []).append(secs)
    if args.trace:
        table, totals = per_layer(import_s, loop, run_dir / "trace")
        untraced = loop["pass_s"]["untraced"]
        result["tracing_overhead"] = loop["pass_s"]["traced"] / untraced - 1.0
        result["layer_totals"] = totals
    else:
        table = end_to_end(loop)
        result["setup_samples"] = loop["setups"]
    result["metrics_table"] = table
    return result


if __name__ == "__main__":
    sys.exit(main())
