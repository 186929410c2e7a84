"""conelab benchmark: time to a verified answer on CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/run.py --self-test

A run imports conelab from ../src, warms up, then drives `conelab.cli.main`
in-process in a closed loop from one caller: each invocation starts when
the previous one has returned and written its report.  Rounds repeat until
S seconds have passed.  Every report is checked after its round; a failed
check counts as a failed op.

With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a second phase with recording wrappers installed (see
spans.py).  Human-readable lines come first, the last line of stdout is the
JSON result, and the full record is appended to .perfbench_out/results.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# set-ups per run: this process plus SETUP_SAMPLES - 1 fresh child processes,
# which run between measured rounds
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("round_s_mean", "s"), ("peak_rss_mb", "MB"))


def import_conelab():
    """Import conelab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import conelab
        from conelab import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import conelab from {SRC}: {exc}")
    if not os.path.abspath(conelab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: conelab came from {conelab.__file__}, "
                 f"not from {SRC}")
    return cli


class Tally:
    """Ops attempted and failed, per-kind times, and checksums."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_seconds: dict[str, list[float]] = {}
        self.checksums: dict[str, float] = {}

    def record(self, op, code, error, out_dir) -> None:
        self.attempted += 1
        report = None
        path = os.path.join(out_dir, "report.json")
        if error is None and os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
        problems, sums = op.check(code, report)
        if error is not None:
            problems = [error]
        if problems:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        for key, val in sums.items():
            self.checksums.setdefault(key, val)


def run_op(cli, op, out_dir):
    """One CLI invocation; returns (seconds, exit code, error or None)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "report.json"))
    argv = [*op.argv, "--output-dir", out_dir]
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising op is a failed op; the run goes on
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    return time.perf_counter() - start, code, error


def op_dirs(ops) -> list[str]:
    dirs = [os.path.join(OUT, "work", f"op{i}") for i in range(len(ops))]
    for d in dirs:
        os.makedirs(d, exist_ok=True)
    return dirs


def set_up(workload, seed, tally):
    """Import conelab and run one checked op of each kind.

    Returns the CLI module, the round's ops, their output directories and
    the set-up seconds.
    """
    start = time.perf_counter()
    cli = import_conelab()
    import workloads
    ops = workloads.WORKLOADS[workload](seed)
    dirs = op_dirs(ops)
    seen = set()
    for op, d in zip(ops, dirs):
        if op.kind not in seen:
            seen.add(op.kind)
            _, code, error = run_op(cli, op, d)
            tally.record(op, code, error, d)
    return cli, ops, dirs, time.perf_counter() - start


def child_set_up(workload, seed, tally) -> float:
    """Set up once in a fresh process; returns its set-up seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.attempted += res["attempted"]
    tally.failed += res["failed"]
    tally.failures += res["failures"]
    return res["setup_s"]


def measure(cli, ops, dirs, seconds, tally, tracer=None,
            pauses=()) -> list[float]:
    """Run rounds until they add up to `seconds` (at least one); round times.

    Each pause runs between two rounds, untimed, at evenly spaced points of
    the measured time.  Spreading the rounds over a longer stretch of wall
    time averages over more of the machine's slow and fast periods.
    """
    rounds = []
    pending = list(pauses)
    while not rounds or sum(rounds) < seconds:
        results = []
        t0 = time.perf_counter()
        for i, (op, d) in enumerate(zip(ops, dirs)):
            if tracer is not None:
                tracer.op = len(rounds) * len(ops) + i
            results.append(run_op(cli, op, d))
        rounds.append(time.perf_counter() - t0)
        for op, d, (dt, code, error) in zip(ops, dirs, results):
            tally.op_seconds.setdefault(op.kind, []).append(dt)
            tally.record(op, code, error, d)
        done = len(pauses) - len(pending)
        if pending and sum(rounds) >= (done + 1) * seconds / (len(pauses) + 1):
            pending.pop(0)()
    for pause in pending:
        pause()
    return rounds


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, if >= p50."""
    n = len(samples)
    pct = 100 * (n - 10) // n if n > 10 else 0
    if pct < 50:
        return None, None
    return sorted(samples)[max(0, -(-pct * n // 100) - 1)], pct


def machine(load_start) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> int:
    load_start = list(os.getloadavg())
    tally = Tally()
    cli, ops, dirs, setup_main = set_up(args.workload, args.seed, tally)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    lines = []
    if args.trace:
        import spans
        half = args.seconds / 2.0
        plain = measure(cli, ops, dirs, half, tally)
        tracer = spans.Tracer()
        tracer.install()
        try:
            first = tracer.mark()
            traced = measure(cli, ops, dirs, half, tally, tracer)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics(first, len(traced))
        values["bench.round_s_untraced"] = statistics.median(plain)
        values["bench.round_s_traced"] = statistics.median(traced)
        values["bench.trace_overhead"] = (values["bench.round_s_traced"]
                                          / values["bench.round_s_untraced"]
                                          - 1.0)
        metrics = {name: _metric(values[name], unit)
                   for name, unit in spans.PER_LAYER}
        trace_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        lines.append(f"rounds: {len(plain)} untraced, {len(traced)} traced; "
                     f"per-layer values are per traced round; spans in "
                     f"{os.path.relpath(trace_path, ROOT)}")
    else:
        setups = [setup_main]

        def child():
            setups.append(child_set_up(args.workload, args.seed, tally))

        rounds = measure(cli, ops, dirs, args.seconds, tally,
                         pauses=[child] * (SETUP_SAMPLES - 1))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the mean, not the median, is gated: on a shared machine whole
        # stretches of rounds run slow, and the median of a few rounds jumps
        # with them, while the mean moves in proportion
        values = {"setup_s": statistics.median(setups),
                  "round_s_mean": statistics.fmean(rounds),
                  "peak_rss_mb": peak_mb}
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END}
        tail_s, pct = tail(rounds)
        record["rounds"] = {"n": len(rounds),
                            "median_s": statistics.median(rounds),
                            "tail_s": tail_s, "tail_percentile": pct,
                            "all_s": rounds}
        record["setup_samples_s"] = setups
        record["ops"] = {f"{kind}_s": _metric(statistics.median(ts), "s")
                         | {"n": len(ts)}
                         for kind, ts in tally.op_seconds.items()}
        lines.append(f"setup_s samples: "
                     f"{', '.join(f'{s:.4f}' for s in setups)}")
        lines.append(f"round_s: {record['rounds']['median_s']:.6g} s "
                     f"(median of {len(rounds)} rounds)")
        lines.append("round_s_tail: " + (
            f"{tail_s:.6g} s (p{pct} of {len(rounds)} rounds)"
            if tail_s is not None else
            f"n/a ({len(rounds)} rounds; a percentile >= p50 with ten "
            f"rounds beyond it needs at least 20)"))
        for name, m in record["ops"].items():
            lines.append(f"{name}: {m['value']:.6g} s (median of {m['n']})")
    failed_ratio = tally.failed / tally.attempted
    record.update({
        "machine": machine(load_start),
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed, "failed_ratio": failed_ratio,
        "failures": tally.failures[:20], "checksums": tally.checksums,
        "metrics": metrics,
    })
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    for name, m in metrics.items():
        value = m["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name}: {shown} {m['unit']}")
    for line in lines:
        print(line)
    print(f"failed_ratio: {failed_ratio:.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    for failure in tally.failures[:5]:
        print(f"FAILED {failure}")
    for key, val in sorted(tally.checksums.items()):
        print(f"checksum {key}: {val!r}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def setup_only(args) -> int:
    tally = Tally()
    *_, seconds = set_up(args.workload, args.seed, tally)
    print(json.dumps({"setup_s": seconds, "attempted": tally.attempted,
                      "failed": tally.failed, "failures": tally.failures}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results.jsonl files")
    parser.add_argument("--self-test", action="store_true",
                        help="check the wrappers and counts on tiny configs")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.self_test:
        import_conelab()
        import selftest
        return selftest.main()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)
    return setup_only(args) if args.setup_only else run(args)


if __name__ == "__main__":
    sys.exit(main())
