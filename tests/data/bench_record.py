"""Record one BENCH file: the benchmark's figures over repeated runs, the
Tier-1 suite's wall time and counts, and the environment they ran in.

Usage, from anywhere:

    python tests/data/bench_record.py LABEL [--root DIR] [--repeats R]
        [--seconds T] [--seed S] [--probes] [--mutants]

It runs ``bench/run.py --workload all --seed S --seconds T`` R times with
``--trace 0`` and R times with ``--trace 1`` in the checkout at DIR (by
default the one that holds this script), alternating the two, and keeps
every metric's median, min and max per workload and trace setting, with
the runs' correctness and their attempted and failed operations. The
host may be shared, so one run is not enough: on identical code
``peak_rss_mib`` has spread by 6%. It then runs Tier-1 in DIR with the
exact command ROADMAP.md gives, and records its wall time and counts;
with ``--probes`` the line of ``tests/data/probes.py`` under ``-W
error``, and with ``--mutants`` the counts of ``tests/data/mutate.py``
(about 90 s). The environment is bench/run.py's own ``env`` line (Python,
numpy, BLAS, CPU count and affinity) and DIR's ``git rev-parse HEAD``,
with whether its tree had uncommitted changes.

It writes ``BENCH_<LABEL>.json`` at the root of the checkout that holds
this script, so that one checkout collects the files of several trees,
and exits 0, or 1 when a benchmark run fails or reports ``correct:
false``. Standard library only; every child runs with the interpreter
that runs this script.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# "1376 passed, 5 xfailed in 9.04s", pytest's last line under -q
SUMMARY = re.compile(r"(\d+) (passed|failed|xfailed|xpassed|skipped|errors?|warnings?|deselected)")


def parse_run_all(text: str) -> tuple[dict, dict]:
    """The ``env`` object and, per workload, the JSON result line that
    ``bench/run.py --workload all`` printed for it. Each workload's block
    opens with a ``workload NAME  seed S  trace T`` line and ends with its
    result; a workload whose process failed has no result and is left out."""
    env, results, name = {}, {}, None
    for line in text.splitlines():
        if line.startswith("workload "):
            name = line.split()[1]
        elif line.startswith("env {"):
            env = json.loads(line[len("env "):])
        elif line.startswith("{") and name is not None:
            results[name] = json.loads(line)
            name = None
    return env, results


def parse_pytest_summary(text: str) -> dict:
    """Counts from the last line of a ``pytest -q`` run that names any,
    keyed as pytest prints them."""
    for line in reversed(text.strip().splitlines()):
        counts = SUMMARY.findall(line)
        if counts:
            return {kind: int(k) for k, kind in counts}
    return {}


def summarize(runs: list[dict]) -> dict:
    """One workload's results at one trace setting over the repeated runs:
    per metric its unit, median, min, max and every run's value."""
    metrics = {}
    for m, first in runs[0]["metrics"].items():
        values = [run["metrics"][m]["value"] for run in runs]
        metrics[m] = {"unit": first["unit"], "median": statistics.median(values), "min": min(values),
                      "max": max(values), "runs": values}
    return {"runs": len(runs), "correct": all(run["correct"] for run in runs),
            "attempted": [run["attempted"] for run in runs], "failed": [run["failed"] for run in runs],
            "metrics": metrics}


def _run(cmd, root: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)


def git_state(root: Path) -> dict:
    """The checkout's HEAD and whether its tracked files differ from it
    (None where git cannot tell)."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "uncommitted_changes": None}
    return {"commit": head.stdout.strip(), "uncommitted_changes": bool(status.stdout.strip())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("label", help="the file is named BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout to measure")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--mutants", action="store_true")
    args = parser.parse_args()
    if args.repeats < 1 or not args.seconds > 0:
        parser.error("--repeats must be >= 1 and --seconds > 0")
    root = args.root.resolve()
    if not (root / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {root}")

    status, env = 0, {}
    collected: dict[str, dict[str, list]] = {}
    for _ in range(args.repeats):
        for trace in ("0", "1"):
            cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", trace]
            done = _run(cmd, root, timeout=3600)
            env_line, results = parse_run_all(done.stdout)
            env = env or env_line
            if done.returncode != 0:
                status = 1
                print(f"bench/run.py --trace {trace} exited {done.returncode}", file=sys.stderr)
            for name, result in results.items():
                collected.setdefault(name, {}).setdefault(f"trace{trace}", []).append(result)
    workloads = {name: {key: summarize(runs) for key, runs in by_trace.items()}
                 for name, by_trace in collected.items()}

    start = time.perf_counter()
    done = _run(TIER1, root, timeout=3600)
    tier1 = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
             "wall_s": time.perf_counter() - start, "exit": done.returncode,
             "counts": parse_pytest_summary(done.stdout)}

    record = {
        "label": args.label,
        **git_state(root),
        "settings": {"seed": args.seed, "seconds": args.seconds, "repeats": args.repeats},
        "env": env,
        "workloads": workloads,
        "tier1": tier1,
    }
    if args.probes:
        done = _run([sys.executable, "-W", "error", "tests/data/probes.py"], root, timeout=600)
        record["probes"] = json.loads(done.stdout) if done.returncode == 0 else {"exit": done.returncode}
    if args.mutants:
        done = _run([sys.executable, "tests/data/mutate.py"], root, timeout=3600)
        killed = re.search(r"(\d+) of (\d+) mutants killed", done.stdout)
        record["mutants"] = ({"killed": int(killed[1]), "total": int(killed[2])} if killed
                             else {"exit": done.returncode})
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
