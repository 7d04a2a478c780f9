"""Fresh-process side of the cqec benchmark; ``run.py`` starts it.

    worker.py setup --workload W --seed N --refs FILE
        time the import of cqec and the workload's set-up, then its first
        op; print one JSON line.
    worker.py loop --workload W --seed N --seconds S --trace 0|1 --refs FILE
                   --result FILE [--trace-dir DIR] [--setups K]
        closed loop over whole passes of a register workload's ops, with K
        set-up processes spread over the run.
    worker.py cli-traced --trace-dir DIR --op K -- ARGS...
        run ``cqec ARGS`` with the tracer installed.

Only the standard library is imported before the timed set-up starts.
"""

import argparse
import contextlib
import json
import resource
import subprocess
import sys
import time


class SetupSchedule:
    """`count` set-up samples spread evenly over a run of `seconds`, so
    that their median sees the same machine as the loop's ops: sample k
    is due once k/count of the run has passed.  The loop calls `poll`
    between ops; `finish` takes any left when the loop ends early.
    `take()` returns [setup_s, first_op_s, failure messages]."""

    def __init__(self, count, seconds, take):
        self.count, self.seconds, self.take = count, seconds, take
        self.started = time.perf_counter()
        self.samples = []

    def poll(self):
        while len(self.samples) < self.count and (
            time.perf_counter() - self.started >= len(self.samples) * self.seconds / self.count
        ):
            self.samples.append(self.take())

    def finish(self):
        while len(self.samples) < self.count:
            self.samples.append(self.take())


def setup_sample(argv, timeout=120.0):
    """Run a `worker.py setup` process; [setup_s, first_op_s, failures]."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        return [None, None, [f"set-up process: exit code {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}"]]
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return [rec["setup_s"], rec.get("first_op_s"), rec.get("failures", [])]


def closed_loop(ops, seconds, trace, setups, run_one, each_pass=contextlib.nullcontext):
    """Whole passes over `ops`, one op at a time, until the next round would
    end after `seconds`; at least one round runs.  With `trace`, a round is
    an untraced pass followed by a traced pass of the same ops, so that the
    two can be compared.  `run_one(op, traced, op_id)` returns (seconds,
    failure messages); `each_pass(traced)` is entered around each pass;
    set-up samples are taken between ops.  Returns the records [op name,
    seconds, traced, passed], the failure messages and the wall time of the
    untraced and traced passes."""
    records, fails = [], []
    pass_s = {"untraced": 0.0, "traced": 0.0}
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            pass_start = time.perf_counter()
            with each_pass(traced):
                for op in ops:
                    setups.poll()
                    elapsed, op_fails = run_one(op, traced, len(records))
                    records.append([op["name"], elapsed, traced, not op_fails])
                    fails += op_fails
            pass_s["traced" if traced else "untraced"] += time.perf_counter() - pass_start
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    setups.finish()
    return records, fails, pass_s


def _setup(args):
    if args.workload == "cli":
        start = time.perf_counter()
        import cqec.cli  # noqa: F401

        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    import workloads

    ops = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    ctx = workloads.Context(ops)
    built = time.perf_counter()
    out = workloads.run_op(ctx, ops[0], workloads.mc_seed(ops, ops[0], args.seed))
    done = time.perf_counter()
    with open(args.refs) as fh:
        refs = json.load(fh)
    fails = workloads.check_op(ops[0], out, refs[ops[0]["name"]])
    print(json.dumps({"setup_s": built - start, "first_op_s": done - built, "failures": fails}))
    return 0


def _loop(args):
    """The closed loop of a register workload.  With tracing, each pass
    rebuilds the generators, so that set-up work shows in the layer totals."""
    import workloads

    ops = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(ops)
    with open(args.refs) as fh:
        refs = json.load(fh)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.trace_dir)

    @contextlib.contextmanager
    def each_pass(traced):
        nonlocal ctx
        if traced:
            tracer.install()
        try:
            if tracer:
                ctx = workloads.Context(ops)
            yield
        finally:
            if traced:
                tracer.uninstall()

    def run_one(op, traced, op_id):
        if traced:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(ctx, op, workloads.mc_seed(ops, op, args.seed))
        except Exception as exc:  # an op that raises is a failed op
            return time.perf_counter() - t0, [f"{op['name']}: {type(exc).__name__}: {exc}"]
        finally:
            if tracer:
                tracer.op = None
        return time.perf_counter() - t0, workloads.check_op(op, out, refs[op["name"]])

    setup_argv = [sys.executable, __file__, "setup", "--workload", args.workload,
                  "--seed", str(args.seed), "--refs", args.refs]
    setups = SetupSchedule(args.setups, args.seconds, lambda: setup_sample(setup_argv))
    records, fails, pass_s = closed_loop(ops, args.seconds, args.trace, setups, run_one,
                                         each_pass)
    if tracer:
        tracer.dump(tracer.trace_dir / "main.jsonl")
    result = {
        "setups": setups.samples,
        "records": records,
        "failures": fails,
        "pass_s": pass_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _cli_traced(args):
    import cqec.cli
    from tracing import Tracer

    tracer = Tracer(args.trace_dir)
    tracer.install()
    tracer.op = args.op
    tracer.open("cli.main")
    try:
        return cqec.cli.main(args.argv)
    finally:
        tracer.close()
        tracer.dump(tracer.trace_dir / "main.jsonl")


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refs")
    p = sub.add_parser("loop")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--trace-dir")
    p.add_argument("--setups", type=int, default=0)
    p.add_argument("--refs", required=True)
    p.add_argument("--result", required=True)
    p = sub.add_parser("cli-traced")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        return _setup(args)
    if args.mode == "loop":
        return _loop(args)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return _cli_traced(args)


if __name__ == "__main__":
    sys.exit(main())
