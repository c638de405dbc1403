"""Run one workload of the boolrg benchmark and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 26 --trace 0

Run from the root of a checkout.  The workload runs in its own
single-threaded process (``worker.py``) against ``src/boolrg`` of the
checkout; four more processes, two before it and two after, stop at the
first timed operation to give the median set-up time.  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  ``--workload all`` runs the four workloads in turn and
prints one such line for each, with its name.  The full report,
with the seed, the source digest and the Python and numpy versions, goes
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("tables", "symmetric", "detect", "cli")
SETUP_SIDE = 2  # set-up-only processes before and after the measured one
WORKER_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mib": "MiB"}


def _args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, workload: str, work: Path, setup_only: bool, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker printed no report")
    return json.loads(lines[-1])


def tail_percentile(ops_per_round: int, min_rounds: int) -> int:
    """Highest whole percentile with at least 10 operations beyond it in the
    smallest run, which makes ``min_rounds`` rounds."""
    count = ops_per_round * min_rounds
    return math.floor(100 * (count - 10) / count)


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main() -> int:
    args = _args()
    if not (ROOT / "src" / "boolrg" / "__init__.py").is_file():
        print(f"no boolrg package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOADS:
            print(json.dumps({"workload": workload, **run_workload(args, workload)}), flush=True)
    else:
        print(json.dumps(run_workload(args, args.workload)))
    return 0


def run_workload(args, workload: str) -> dict:
    """Run one workload, write its full report, return the printed result."""
    from worker import MIN_ROUNDS  # stdlib only at import time

    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results = HERE / "results"
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = results / f"{stem}-spans.json" if args.trace else None
    setup = lambda: _worker(args, workload, work, setup_only=True)["setup_s"]  # noqa: E731
    try:
        setup()  # warm-up: bytecode caches, page cache
        setups = [setup() for _ in range(SETUP_SIDE)]
        rep = _worker(args, workload, work, setup_only=False, spans=spans)
        setups += [rep["setup_s"]] + [setup() for _ in range(SETUP_SIDE)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pct = tail_percentile(rep["ops_per_round"], MIN_ROUNDS[workload])
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in rep["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(rep["round_walls"]),
            "op_p50_ms": statistics.median(rep["op_ms"]),
            "op_tail_ms": nearest_rank(rep["op_ms"], pct),
            "peak_rss_mib": rep["peak_rss_mib"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    result = {"correct": rep["correct"], "attempted": rep["attempted"], "failed": rep["failed"], "metrics": metrics}

    results.mkdir(exist_ok=True)
    full = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_digest": _source_digest(),
        "python": platform.python_version(), "numpy": rep["numpy"],
        "tail_percentile": pct, "operations": len(rep["op_ms"]), "ops_per_round": rep["ops_per_round"],
        "setup_samples_s": setups, "round_walls_s": rep["round_walls"],
        "op_median_ms": _op_medians(rep),
        "known_faults": rep["known_faults"], "wrong": rep["wrong"], **result,
    }
    (results / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    for name, whats in rep["wrong"].items():
        print(f"check failed: {workload} {name}: {whats}", file=sys.stderr)
    return result


def _op_medians(rep: dict) -> dict:
    """Median time of each operation of the round over the run's rounds."""
    names, times = rep["op_names"], rep["op_ms"]
    return {name: statistics.median(times[k::len(names)]) for k, name in enumerate(names)}


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".candidates") or name.endswith(".runs"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".mb") or name.endswith(".mb_computed"):
        return "MB"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
