"""Time-to-verdict benchmark for `dlfit fit|verify|entail`.

    python3 bench/run.py --workload flat-fit --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Set-up imports dlfit from `src/` and
writes the workload's seeded corpus under `.bench_out/`.  A pass then runs
every op of the corpus once, each in a child forked from the set-up state,
so no op sees another's caches.  The child times `dlfit.cli.main(argv)` by
the CPU time of its process (user plus system).  An op reads a few small
files and never waits, so this is its time to verdict when it has a CPU to
itself; unlike wall time, it leaves out the time that other processes on a
shared machine hold the CPU.  Passes repeat until --seconds have gone by;
each op counts with its least time over the passes.  Every verdict is
checked against the op's known answer.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics; it also writes the
first traced pass's spans to `.bench_out/`.  The last line of standard
output is one JSON object; a summary goes to standard error.  The exit
code is 1 if any definite verdict contradicts its known answer.
"""

import argparse
import gc
import io
import json
import os
import select
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import layers  # noqa: E402

OP_LIMIT_S = 20.0  # per-op wall limit; an op over it is killed and failed
MIN_OPS_PER_PASS = 100  # so that ten op timings lie beyond p90
# the faster ops, those at or below this quantile of the first pass's op
# times, run REPEATS times in each later untraced pass
REPEAT_QUANTILE = 0.75
REPEATS = 3
SETUP_REPS = 21
UNDECIDED = 2
# the verdict line each command prints, by exit code
VERDICT_LINES = {
    "fit": {0: {"verdict: fitting-exists"}, 1: {"verdict: no-fitting"},
            2: {"verdict: unknown", "verdict: no-fitting-within-bounds"}},
    "verify": {0: {"verdict: fits"}, 1: {"verdict: does-not-fit"},
               2: {"verdict: unknown"}},
    "entail": {0: {"entailed"}, 1: {"not-entailed"}, 2: {"unknown"}},
}


# --- child processes ---------------------------------------------------------

def in_child(work, limit):
    """Run work() in a forked child and return (its JSON result or None,
    killed, peak RSS in MB).  The child is killed after limit seconds."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            data = json.dumps(work()).encode()
            with os.fdopen(w, "wb") as f:
                f.write(data)
        finally:
            os._exit(0)
    os.close(w)
    buf = bytearray()
    killed = False
    deadline = time.monotonic() + limit
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([r], [], [], remaining)
            if ready:
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    break
                buf += chunk
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    result = json.loads(buf) if buf and not killed and status == 0 else None
    return result, killed, usage.ru_maxrss / 1024


def run_op(op, tracing, spans_file, op_id):
    """The child's side of one op: run the CLI in-process on the op's
    files, with standard output captured, and time it."""
    import dlfit.cli
    rec = layers.install() if tracing else None
    out = io.StringIO()
    sys.stdout, sys.stderr = out, io.StringIO()
    error = None
    t0 = time.process_time()
    try:
        rc = dlfit.cli.main(list(op.argv))
    except BaseException as err:  # the op fails; the benchmark goes on
        rc, error = None, f"{type(err).__name__}: {err}"
    seconds = time.process_time() - t0
    lines = out.getvalue().splitlines()
    if op.argv[0] == "entail":
        verdict = lines[-1] if lines else None
    else:
        verdict = next((ln for ln in lines if ln.startswith("verdict:")),
                       None)
    result = {"rc": rc, "seconds": seconds, "verdict": verdict,
              "error": error}
    if rec is not None:
        result["layers"] = layers.metrics(rec)
        if spans_file is not None:
            layers.write_spans(rec, op_id, spans_file)
    return result


# --- set-up ------------------------------------------------------------------

def setup(workload, seed, directory):
    t0 = time.process_time()
    import dlfit.cli  # noqa: F401  (imports every dlfit module)
    ops = corpus.build(workload, seed, directory)
    return ops, time.process_time() - t0


def timed_setups(workload, seed, out_dir):
    """Set up SETUP_REPS times from an interpreter without dlfit, the last
    time in this process; returns the ops and the set-up times."""
    times = []
    for _ in range(SETUP_REPS - 1):
        result, _, _ = in_child(lambda: setup(workload, seed, out_dir)[1], 300)
        if result is None:
            raise SystemExit("set-up failed (is dlfit under src/?)")
        times.append(result)
    ops, seconds = setup(workload, seed, out_dir)
    times.append(seconds)
    from dlfit import semantics
    if getattr(semantics, "_TYPE_SYSTEM_CACHE", None):
        raise SystemExit("set-up built type systems; ops would share them")
    return ops, times


# --- passes ------------------------------------------------------------------

class Tally:
    """Outcomes of the ops run so far, over all passes."""

    def __init__(self):
        self.attempted = self.decided = self.failed = self.wrong = 0
        # op runs in the sweeps that run every op once, and the definite
        # verdicts among them; repeats of the faster ops are left out, so
        # that every op weighs the same in decided_ratio
        self.swept = self.swept_decided = 0
        self.bad_output = 0
        self.peak_rss_mb = 0.0
        self.problems = []

    def add(self, op, result, killed, rss_mb, swept):
        self.attempted += 1
        self.swept += swept
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if result is None or result["rc"] not in (0, 1, 2):
            self.failed += 1
            if killed:
                why, seconds = "killed at the wall limit", OP_LIMIT_S
            elif result is None:
                why, seconds = "the op's process died", OP_LIMIT_S
            else:
                why = result["error"] or f"exit {result['rc']}"
                seconds = result["seconds"]
            self.problems.append(f"{op.label}: {why}")
            return seconds
        rc = result["rc"]
        if result["verdict"] not in VERDICT_LINES[op.argv[0]][rc]:
            self.failed += 1
            self.bad_output += 1
            self.problems.append(f"{op.label}: exit {rc} but printed "
                                 f"{result['verdict']!r}")
        elif rc != UNDECIDED:
            self.decided += 1
            self.swept_decided += swept
            if rc != op.expected:
                self.failed += 1
                self.wrong += 1
                self.problems.append(f"{op.label}: wrong verdict, exit {rc}, "
                                     f"expected {op.expected}")
        return result["seconds"]


def run_pass(ops, tally, tracing=False, spans_file=None, repeat=()):
    """Run every op once, then the ops numbered in repeat in REPEATS - 1
    more sweeps; returns the list of each op's seconds, and the layer
    metrics of each op of the first sweep."""
    seconds, per_op = [[] for _ in ops], []
    sweeps = [range(len(ops))] + [repeat] * (REPEATS - 1 if repeat else 0)
    for k, sweep in enumerate(sweeps):
        for op_id in sweep:
            op = ops[op_id]
            result, killed, rss = in_child(
                lambda: run_op(op, tracing, spans_file, op_id), OP_LIMIT_S)
            seconds[op_id].append(tally.add(op, result, killed, rss, k == 0))
            if result and "layers" in result:
                per_op.append(result["layers"])
    return seconds, per_op


def faster_ops(first_pass):
    """The numbers of the ops at or below REPEAT_QUANTILE of the op times
    of a pass.  The small ops decide op_p50_s, and more runs of them steady
    their least times, at little cost to the run."""
    times = [min(t) for t in first_pass]
    cut = sorted(times)[int(REPEAT_QUANTILE * (len(times) - 1))]
    return [i for i, t in enumerate(times) if t <= cut]


def op_minima(passes):
    """Each op's least time over the passes.  Other load on a shared
    machine only ever adds time to an op, through the caches and the page
    faults it shares with that load, and it comes and goes over seconds;
    the least time of an op is the one least disturbed, and it varies far
    less from run to run than the op's median."""
    return [min(t for p in passes for t in p[op_id])
            for op_id in range(len(passes[0]))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    ops, setup_times = timed_setups(args.workload, args.seed, out_dir)
    if len(ops) < MIN_OPS_PER_PASS:
        raise SystemExit(f"a pass needs {MIN_OPS_PER_PASS} ops, the corpus "
                         f"has {len(ops)}")
    # the children then leave set-up's objects alone when they collect
    gc.freeze()

    tally = Tally()
    untraced, traced, layer_passes = [], [], []
    started = time.monotonic()
    repeat = ()
    while True:
        untraced.append(run_pass(ops, tally, repeat=repeat)[0])
        repeat = faster_ops(untraced[0])
        if args.trace:
            if traced:
                seconds, per_op = run_pass(ops, tally, True)
            else:
                # a new file each run: truncating an old one can take seconds
                spans_path = out_dir / f"spans-{time.time_ns()}.tsv.gz"
                with open(spans_path, "ab") as spans_file:
                    seconds, per_op = run_pass(ops, tally, True, spans_file)
            traced.append(seconds)
            layer_passes.append(layers.combine(per_op))
        if time.monotonic() - started >= args.seconds:
            break

    timings = op_minima(untraced)
    if args.trace:
        metrics = {}
        for key in layer_passes[0]:
            values = [p[key] for p in layer_passes]
            exact = isinstance(values[0], int) or key.endswith("_ratio")
            metrics[key] = metric(values[0] if exact
                                  else statistics.median(values),
                                  _unit(key))
            if exact and any(v != values[0] for v in values):
                print(f"warning: {key} differs between passes: {values}",
                      file=sys.stderr)
        traced_s = sum(op_minima(traced))
        metrics["trace.corpus_s"] = metric(traced_s, "s")
        metrics["trace.overhead_s"] = metric(traced_s - sum(timings), "s")
    else:
        metrics = {
            "corpus_s": metric(sum(timings), "s"),
            "op_p50_s": metric(statistics.median(timings), "s"),
            "op_p90_s": metric(_p90(timings), "s"),
            "decided_ratio": metric(tally.swept_decided / tally.swept,
                                    "ratio"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(tally.peak_rss_mb, "MB"),
        }

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(ops)} ops; "
          f"{len(timings)} op minima; attempted {tally.attempted}, "
          f"decided {tally.decided}, failed {tally.failed} "
          f"(failed_ratio {tally.failed / tally.attempted:.4f}), "
          f"wrong_verdicts {tally.wrong}", file=sys.stderr)
    for problem in sorted(set(tally.problems)):
        print(f"  {problem}", file=sys.stderr)
    correct = tally.wrong == 0 and tally.bad_output == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.wrong == 0 else 1


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    # String hashing picks set iteration orders, and with them the search
    # orders of the deciders; a fixed hash seed makes runs repeatable.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
