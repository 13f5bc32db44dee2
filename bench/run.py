"""Closed-loop benchmark of cvwitness.

    python3 bench/run.py --workload certify-stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client in one process with one BLAS thread runs a workload's round
of operations again and again, each operation starting when the previous
one has finished, for at least --seconds (whole rounds only). The last
line of standard output is one JSON object with the operations attempted
and failed, whether every output passed its checks, and the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1). See README.md.
"""

import os
import sys

# pin the run environment before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# a stray CVW_DEFAULT_TOL would change every verdict; tolerances are passed explicitly
os.environ.pop("CVW_DEFAULT_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("certify-stream", "sweep-cli", "oracle-crosscheck", "minimize-multimode")
SETUP_REPEATS = 5
BLOCK_NS = 150_000_000  # operation time between two passes of the calibration loop
CALIBRATION_WINDOW = 3  # loop passes on either side of a block that scale it
CLOCK = time.process_time_ns  # what a latency measures: CPU time of this process

# name -> (unit, better), in report order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
}
# the same figures under the names of each workload's own operation
NAMED = {
    "certify-stream": [("certify_cms_per_s", "CM/s", "ops_per_s", 1.0),
                       ("certify_latency_p50_us", "us", "latency_p50_ms", 1e3),
                       ("certify_latency_p99_us", "us", "p99_ms", 1e3)],
    "sweep-cli": [("sweep_rows_per_s", "rows/s", "rows_per_s", 1.0)],
    "oracle-crosscheck": [("oracle_checks_per_s", "checks/s", "ops_per_s", 1.0),
                          ("oracle_check_p50_ms", "ms", "latency_p50_ms", 1.0)],
    "minimize-multimode": [("minimize_solves_per_s", "solves/s", "ops_per_s", 1.0),
                           ("minimize_solve_p50_ms", "ms", "latency_p50_ms", 1.0)],
}


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program and build one workload's inputs; returns the
    workload and the seconds this took, as measured and scaled to the
    reference host by the calibration loop run right after."""
    start = time.perf_counter()
    import cvwitness
    if not Path(cvwitness.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cvwitness imported from {cvwitness.__file__}, not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload](seed, workdir)
    setup_s = time.perf_counter() - start
    import calibration
    return wl, (setup_s, setup_s * calibration.host_factor())


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of the workload in a fresh process, as measured and scaled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = done.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


class Runner:
    """Runs whole rounds of a workload's operations in a closed loop."""

    def __init__(self, wl):
        self.wl = wl
        self.count = 0  # operations started, the untimed first round included
        self.first = [self._call(op, None) for op in wl.ops]
        self.mismatches = []

    def _call(self, op, tracer):
        self.count += 1
        try:
            if tracer is None:
                return op()
            tracer.op_id = self.count
            try:
                return tracer.call("bench.op", op)
            finally:
                tracer.op_id = -1
        except Exception as exc:  # a raising operation counts as failed
            return exc

    def _same(self, a, b) -> bool:
        if isinstance(a, Exception) or isinstance(b, Exception):
            return type(a) is type(b) and str(a) == str(b)
        return self.wl.same(a, b)

    def timed(self, seconds: float, tracer=None):
        """Latencies in ns of whole rounds run for at least ``seconds``, or
        until the tracer holds its maximum number of spans: as measured,
        and scaled to the reference host. Latencies are the process's CPU
        time, so time the process spends descheduled, or its virtual CPU
        stolen by the host, does not count. The calibration loop, timed
        on the same clock, runs before the first operation and after each
        block of about BLOCK_NS of operations; a block is scaled by the
        median loop time of the CALIBRATION_WINDOW blocks on either side.
        """
        import numpy as np
        import calibration
        latencies = array("q")
        bounds, loops = [0], [calibration.loop_ns(CLOCK)]
        in_block = 0
        deadline = time.perf_counter() + seconds
        while True:
            for i, op in enumerate(self.wl.ops):
                t0 = CLOCK()
                out = self._call(op, tracer)
                dt = CLOCK() - t0
                latencies.append(dt)
                in_block += dt
                if in_block >= BLOCK_NS:
                    loops.append(calibration.loop_ns(CLOCK))
                    bounds.append(len(latencies))
                    in_block = 0
                if not self._same(out, self.first[i]):
                    self.mismatches.append(i)
            if time.perf_counter() >= deadline or (tracer is not None and tracer.full()):
                break
        if bounds[-1] < len(latencies):
            loops.append(calibration.loop_ns(CLOCK))
            bounds.append(len(latencies))
        factor = np.empty(len(latencies))
        w = CALIBRATION_WINDOW
        for b in range(len(bounds) - 1):
            near = loops[max(0, b + 1 - w):b + 1 + w]
            factor[bounds[b]:bounds[b + 1]] = calibration.REFERENCE_MS * 1e6 / statistics.median(near)
        return latencies, np.asarray(latencies, dtype=float) * factor


def latency_figures(measured, scaled, n_ops: int, items_per_op: int) -> dict:
    """End-to-end figures from whole rounds of ``n_ops`` operations.

    Every operation of a round is repeated once per round. Its latency is
    the median of its repetitions, scaled to the reference host (see
    ``Runner.timed``). Percentiles are taken over the round's operations;
    throughput is a round's operations over the sum of their latencies.
    ``p99_ms`` is over every scaled sample, and ``raw_*`` figures use
    every sample as it was measured.
    """
    import numpy as np
    lat = np.asarray(scaled, dtype=float).reshape(-1, n_ops) / 1e6
    typical = np.median(lat, axis=0)
    p50, p90 = np.percentile(typical, [50, 90])
    ops_per_s = n_ops / (typical.sum() / 1e3)
    raw = np.asarray(measured, dtype=float) / 1e6
    raw_p50, raw_p99 = np.percentile(raw, [50, 99])
    return {"ops_per_s": ops_per_s, "rows_per_s": ops_per_s * items_per_op,
            "latency_p50_ms": p50, "latency_p90_ms": p90, "p99_ms": float(np.percentile(lat, 99)),
            "raw_ops_per_s": raw.size / (raw.sum() / 1e3), "raw_p50_ms": raw_p50, "raw_p99_ms": raw_p99}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_workload(args) -> int:
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(*map(repr, setup))
            return 0
        setups = [setup] + [probe_setup(args) for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
        runner = Runner(wl)
        if args.trace:
            import tracing
            start = time.perf_counter()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.timed(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            plain = runner.timed(args.seconds - (time.perf_counter() - start))
            latencies = traced[0] + plain[0]
            ratio = (latency_figures(*plain, len(wl.ops), 1)["ops_per_s"]
                     / latency_figures(*traced, len(wl.ops), 1)["ops_per_s"])
            metrics = tracing.layer_metrics(tracer, len(traced[0]), ratio)
            units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
        else:
            latencies, scaled = runner.timed(args.seconds)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            figures = latency_figures(latencies, scaled, len(wl.ops), wl.items_per_op)
            metrics = {"setup_s": statistics.median(s for _, s in setups), "peak_rss_mib": rss_mib,
                       **{k: figures[k] for k in END_TO_END if k in figures}}
            units = {k: u for k, (u, _) in END_TO_END.items()}
        failed_in_round, problems = wl.check(runner.first)
        problems += [f"operation {i} gave a different output than in the first round"
                     for i in sorted(set(runner.mismatches))]
        rounds = len(latencies) // len(wl.ops)
        attempted = len(latencies)
        failed = rounds * sum(failed_in_round)
        env = environment()
        print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
        print(f"env {json.dumps(env)}")
        print(f"rounds {rounds} of {len(wl.ops)} operations; attempted {attempted} failed {failed}")
        print(f"setup runs (s, as measured) {' '.join(f'{s:.4f}' for s, _ in setups)}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        if not args.trace:
            for name, unit, key, scale in NAMED[wl.name]:
                print(f"{name} = {figures[key] * scale:.6g} {unit}")
            print(f"all samples, CPU time as measured: {figures['raw_ops_per_s']:.6g} op/s, "
                  f"p50 {figures['raw_p50_ms']:.6g} ms, p99 {figures['raw_p99_ms']:.6g} ms "
                  f"over {len(latencies)} operations")
        else:
            trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
            tracer.dump(trace_path, {"workload": wl.name, "seed": args.seed, "ops": len(traced[0]),
                                     "env": env, "metrics": metrics})
            print(f"spans written to {trace_path.relative_to(BENCH_DIR.parent)}")
        for problem in problems[:20]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload, each in its own process, and tabulate them."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, result))
        if not result["correct"]:
            status = 1
    print()
    for name, result in rows:
        print(f"{name:20s} correct {result['correct']!s:5s} attempted {result['attempted']:7d} "
              f"failed {result['failed']:5d}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "cvwitness" / "__init__.py").is_file():
        print(f"error: no cvwitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
