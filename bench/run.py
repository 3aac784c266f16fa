"""conestab benchmark: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload {fixtures,ladder,degenerate,sweep}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  The seed builds the workload's inputs (generated problems, sweep
directions, the program's --seed on fixtures and degenerate); the same
seed gives the same inputs.

The operation list is run in whole passes, each operation starting when
the previous one ends, as many passes as bring the run's length closest
to --seconds (at least one).  Every operation's output is checked by the
oracle.  In the untraced run the host's speed is sampled before, inside
and after each operation with the reference of hostspeed.py, and the
end-to-end times are reported in reference seconds.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced
pass, then traced passes, and reports the per-layer metrics plus
trace.overhead_s (median traced pass minus the untraced pass).  The last
line of stdout is the JSON result; a copy with the environment and the
per-operation table goes to .bench_out/, and the traced run writes its
spans there as well.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
TAIL_SHARE = 0.25


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "conestab", "__init__.py")):
        sys.exit("error: no conestab sources under %s; run from the root "
                 "of a source checkout" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import conestab  # noqa: F401


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "platform": platform.platform()}


def declared_metrics(section):
    """{name: unit} of one metric section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def tail_mean(values):
    """Mean of the slowest TAIL_SHARE of the samples (at least one)."""
    xs = sorted(values, reverse=True)
    k = max(1, round(TAIL_SHARE * len(xs)))
    return sum(xs[:k]) / k


class Runner:
    """Runs passes over an operation list and keeps every outcome.

    With `calibrate` (the untraced run), each operation is preceded by a
    host-speed reference and sampled by `hostspeed.Sampler` while it
    runs, and each pass ends with a reference, so every operation has
    references before, inside (if it lasts over PERIOD_S) and after it."""

    def __init__(self, ops, tracer=None, calibrate=False):
        self.ops = ops
        self.tracer = tracer
        self.calibrate = calibrate
        self.refs = []  # references between operations, in order
        # (pass, op index, seconds, index into refs, references inside)
        self.samples = []
        self.failures = []  # (op name, Outcome)
        self.attempted = 0
        self.pass_no = 0

    def run_op(self, i):
        op = self.ops[i]
        if self.tracer is not None:
            self.tracer.op_id = i
        if self.calibrate:
            self.refs.append(hostspeed.reference())
            with hostspeed.Sampler() as sampler:
                dt, outcome = self._call(op)
            dt -= sampler.spent
            inside = sampler.refs
        else:
            dt, outcome = self._call(op)
            inside = []
        self.attempted += 1
        self.samples.append((self.pass_no, i, dt, len(self.refs) - 1, inside))
        if not outcome.ok:
            self.failures.append((op.name, outcome))
        return dt

    @staticmethod
    def _call(op):
        """(seconds to the result, Outcome); only the call is timed."""
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is a failure
            return (time.perf_counter() - t0,
                    oracle.Outcome(False, "raised %s: %s"
                                   % (type(exc).__name__, exc)))
        dt = time.perf_counter() - t0
        return dt, op.check(result)

    def one_pass(self):
        """One pass; returns the sum of its operation times."""
        total = sum(self.run_op(i) for i in range(len(self.ops)))
        if self.calibrate:
            self.refs.append(hostspeed.reference())
        self.pass_no += 1
        return total

    def passes(self, seconds):
        """Whole passes while another one brings the time they take
        closer to `seconds` (at least one)."""
        t0 = time.perf_counter()
        times = []
        while True:
            times.append(self.one_pass())
            if time.perf_counter() - t0 + statistics.median(times) / 2 \
                    > seconds:
                return times

    def scaled(self):
        """[(pass, op index, reference seconds)] of the calibrated samples."""
        return [(p, i, hostspeed.scale(dt, [self.refs[r]] + inside
                                       + [self.refs[r + 1]]))
                for p, i, dt, r, inside in self.samples]


def time_import():
    """Wall time of a fresh interpreter importing numpy and conestab."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, conestab"],
                   env=env, check=True)
    return time.perf_counter() - t0


def setup(workload, seed, workdir):
    """Set-up, repeated: the import in a fresh interpreter, instance
    generation and one untimed warm-up operation, each repetition
    bracketed by host-speed references.  Returns the operation list,
    the set-up times in reference seconds and their wall-time parts."""
    import workloads
    times, parts = [], []
    for _ in range(SETUP_REPEATS):
        ref_before = hostspeed.reference()
        import_s = time_import()
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[workload](seed, workdir)
        t1 = time.perf_counter()
        Runner(ops).run_op(0)
        t2 = time.perf_counter()
        ref_after = hostspeed.reference()
        times.append(hostspeed.scale(import_s + t2 - t0,
                                     [ref_before, ref_after]))
        parts.append({"import_s": import_s, "generate_s": t1 - t0,
                      "warm_up_s": t2 - t1, "reference_s": [ref_before,
                                                           ref_after]})
    return ops, times, parts


def end_to_end(runner, setup_s):
    """The end-to-end metrics, all times in reference seconds."""
    scaled = runner.scaled()
    by_kind, by_pass = {}, {}
    for p, i, t in scaled:
        by_kind.setdefault(runner.ops[i].kind, []).append(t)
        by_pass[p] = by_pass.get(p, 0.0) + t
    all_times = [t for _, _, t in scaled]
    failed = len(runner.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(by_pass.values()), "s"),
        "op_tail_s": (tail_mean(all_times), "s"),
        "ok_ratio": ((runner.attempted - failed) / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = ["times in reference seconds (REF_S %.4f s); the %d references "
            "between operations took %.4f s at the median"
            % (hostspeed.REF_S, len(runner.refs),
               statistics.median(runner.refs)),
            "passes in reference seconds: "
            + ", ".join("%.3f" % by_pass[p] for p in sorted(by_pass)),
            "op_tail_s is the mean of the slowest %d%% of %d operations over "
            "%d passes" % (100 * TAIL_SHARE, len(all_times), len(by_pass))]
    for kind, xs in sorted(by_kind.items()):
        info.append("%s: p50 %.4f s, p75 %.4f s, slowest-quarter mean %.4f s, "
                    "%d samples" % (kind, statistics.median(xs),
                                    statistics.quantiles(xs, n=4)[2]
                                    if len(xs) > 1 else xs[0],
                                    tail_mean(xs), len(xs)))
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fixtures", "ladder", "degenerate", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_program()
    import tracer

    outdir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(outdir, "work-%s-%d" % (args.workload, args.seed))
    os.makedirs(workdir, exist_ok=True)
    env = environment()
    for _ in range(3):  # first LAPACK calls load code; keep them untimed
        hostspeed.reference()
    ops, setup_times, setup_parts = setup(args.workload, args.seed, workdir)

    runner = Runner(ops, calibrate=not args.trace)
    if args.trace:
        plain_s = runner.one_pass()
        runner.samples = []  # keep the untraced pass's outcomes, not its times
        tr = runner.tracer = tracer.Tracer()
        tracer.install(tr)
        try:
            pass_times = runner.passes(args.seconds)
        finally:
            tracer.uninstall(tr)
        values = tracer.summarize(tr, passes=len(pass_times))
        values["trace.overhead_s"] = statistics.median(pass_times) - plain_s
        metrics = {k: (v, tracer.unit(k)) for k, v in values.items()}
        info = ["%d spans over %d traced passes; untraced pass %.3f s"
                % (len(tr.start), len(pass_times), plain_s)]
        spans_path = os.path.join(
            outdir, "spans-%s-%d.npz" % (args.workload, args.seed))
        tracer.save(tr, spans_path, [op.name for op in ops])
        info.append("spans written to %s" % os.path.relpath(spans_path, ROOT))
    else:
        pass_times = runner.passes(args.seconds)
        # set up again after the passes: host speed drifts over a run, and
        # samples from both ends of it steady the median as they do pass_s
        _, more_times, more_parts = setup(args.workload, args.seed, workdir)
        setup_times += more_times
        setup_parts += more_parts
        metrics, info = end_to_end(runner, statistics.median(setup_times))

    # the result line carries exactly the metrics BENCHMARK.json declares
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    for name, unit in declared.items():
        if metrics[name][1] != unit:
            raise RuntimeError("%s is measured in %s, declared in %s"
                               % (name, metrics[name][1], unit))
    unknown = [(name, o) for name, o in runner.failures if not o.known]
    result = {
        "correct": not unknown,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k][0], "unit": u}
                    for k, u in sorted(declared.items())},
    }
    per_op = {}
    for _, i, dt, _, _ in runner.samples:
        per_op.setdefault(ops[i].name, []).append(dt)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "setup_repeats_s": setup_times, "setup_parts": setup_parts,
              "passes": pass_times, "samples": runner.samples,
              "references": runner.refs,
              "result": result,
              "all_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in sorted(metrics.items())},
              "operations": {k: statistics.median(v)
                             for k, v in per_op.items()},
              "failures": [{"operation": n, "cause": o.cause,
                            "known_defect": o.defect}
                           for n, o in runner.failures]}
    bench_path = os.path.join(outdir, "BENCH_%s_s%d_t%d.json"
                              % (args.workload, args.seed, args.trace))
    with open(bench_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print("environment: " + ", ".join("%s=%s" % kv for kv in sorted(env.items())))
    print("workload %s, seed %d: %d operations, %d passes (%s s unscaled)"
          % (args.workload, args.seed, runner.attempted, len(pass_times),
             ", ".join("%.3f" % t for t in pass_times)))
    for line in info:
        print(line)
    counts = {}
    for name, o in runner.failures:
        key = (name, o.cause, oracle.KNOWN_DEFECTS.get(o.defect,
                                                       "not a known defect"))
        counts[key] = counts.get(key, 0) + 1
    for (name, cause, why), n in sorted(counts.items()):
        print("FAILED %dx %s: %s [%s]" % (n, name, cause, why))
    for k, (v, u) in sorted(metrics.items()):
        print("%-42s %14.6f %s" % (k, v, u))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
