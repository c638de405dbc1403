"""One workload in its own process: set up, run whole rounds, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
With ``--setup-only`` it stops just before the first timed operation and
reports its set-up time alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Untraced rounds a run makes at least (a traced run alternates 2 untraced
# with 2 traced).  op_tail_ms takes the highest percentile with ten
# operations beyond it in that many rounds.  Detect makes seven, so its
# percentile (91) falls in the middle of the samples of its n = 15 probe,
# the second longest operation.  A rank at the edge between two kinds of
# operation would move with every jitter of the host.
MIN_ROUNDS = {"tables": 4, "symmetric": 4, "detect": 7, "cli": 4}
# Round r of an untraced run draws its seeded inputs from the seed
# ROUND_SEEDS * seed + r, so a run's figures average over inputs rather
# than ride on one draw.  A traced run repeats round 0's inputs, so its
# counts repeat exactly and its traced and untraced rounds do the same work.
ROUND_SEEDS = 1000
IMPORT_SAMPLES = 5


def _args() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    return ap.parse_args()


def main() -> int:
    args = _args()
    root = Path(__file__).resolve().parent.parent
    import boolrg

    if args.workload == "cli":
        import boolrg.cli  # noqa: F401  bound before the tracer patches it
    if Path(boolrg.__file__).resolve().parent != root / "src" / "boolrg":
        print(f"boolrg imported from {boolrg.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import numpy as np
    import workloads
    from tracer import Tracer

    work = Path(args.work)
    traced_cli = args.workload == "cli" and args.trace

    def round_ops(rnd: int) -> list:
        ops = workloads.round_ops(args.workload, ROUND_SEEDS * args.seed + rnd % ROUND_SEEDS, work)
        if traced_cli:
            # in-process through boolrg.cli.main, where the tracer can see the layers
            ops = [_in_process(op, work) for op in ops]
        return ops

    ops = round_ops(0)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install()
    need_untraced, need_traced = (2, 2) if args.trace else (MIN_ROUNDS[args.workload], 0)
    walls = {False: [], True: []}
    op_ms = {False: [], True: []}
    attempted = failed = 0
    wrong: dict[str, list] = {}
    known: dict[str, list] = {}
    timed = 0.0
    while len(walls[False]) < need_untraced or len(walls[True]) < need_traced or timed < args.seconds:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        rounds = len(walls[False]) + len(walls[True])
        if rounds and not args.trace:
            ops = round_ops(rounds)
        outs = []
        gc.collect()  # no round pays for the garbage of the one before
        tracer.enabled = traced
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                outs.append(op.run())
            except Exception as exc:  # a failed operation is reported, the run goes on
                outs.append(exc)
            op_ms[traced].append(1e3 * (time.perf_counter() - t))
        wall = time.perf_counter() - start
        tracer.enabled = False
        walls[traced].append(wall)
        timed += wall
        for op, out in zip(ops, outs):
            checks = workloads.Checks()
            if isinstance(out, Exception):
                checks.expect(False, f"raised {out!r}")
            else:
                try:
                    op.check(out, checks)
                except Exception as exc:  # output too malformed to check
                    checks.expect(False, f"check raised {exc!r}")
            failures = checks.failures
            attempted += 1
            if any(fault is None for fault, _ in failures):
                wrong[op.name] = [what for fault, what in failures if fault is None]
            elif failures:
                failed += 1
                known[op.name] = sorted({f"{fault}: {what}" for fault, what in failures})
        del outs
    tracer.uninstall()

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" and not traced_cli else resource.RUSAGE_SELF
    report = {
        "setup_s": setup_s,
        "ops_per_round": len(ops),
        "op_names": [op.name for op in ops],
        "round_walls": walls[False],
        "op_ms": op_ms[False],
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "wrong": wrong,
        "known_faults": known,
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024,
        "numpy": np.__version__,
    }
    if args.trace:
        report["layers"] = _layers(tracer, len(walls[True]), args.workload, op_ms[False])
        report["layers"]["trace.wall_s"] = statistics.median(walls[True])
        report["layers"]["trace.untraced_wall_s"] = statistics.median(walls[False])
        report["layers"]["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        report["layers"]["cli.import_s"] = _import_seconds(root)
        if args.spans:
            _write_spans(tracer, Path(args.spans))
    print(json.dumps(report))
    return 0


def _in_process(op, work: Path):
    """The same command run through boolrg.cli.main in this process."""
    from click.testing import CliRunner

    import boolrg.cli
    import workloads

    runner = CliRunner()
    args = op.meta["args"]

    def run():
        here = os.getcwd()
        os.chdir(work)
        try:
            result = runner.invoke(boolrg.cli.main, args)
        finally:
            os.chdir(here)
        return result.exit_code, result.stdout, result.stderr

    return workloads.Op(op.name, run, op.check, op.meta)


LAYER_COUNTS = ["rg.decimate", "rg.annihilation_depth", "truth_table.mobius", "flow.classify",
                "symmetric.sym_decimate", "symmetric.sym_density", "detector.exhaustive"]
LAYER_SELF = ["rg.decimate", "rg.annihilation_depth", "truth_table.mobius", "truth_table.table_to_anf",
              "truth_table.io", "families.generate", "flow.empirical_flow", "flow.classify",
              "symmetric.sym_decimate", "symmetric.sym_density", "symmetric.sym_flow",
              "detector.exhaustive", "detector.truncation", "detector.sieve", "counting.separation_margin"]
LAYER_COUNTERS = ["rg.decimate.mb_computed", "truth_table.io.mb", "detector.exhaustive.candidates"]


def _layers(tracer, traced_rounds: int, workload: str, untraced_ms: list) -> dict:
    """Per traced round: calls, self seconds and counters of each layer."""
    out = {}
    for layer in LAYER_COUNTS:
        out[f"{layer}.calls"] = tracer.calls[layer] / traced_rounds
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = tracer.self_s[layer] / traced_rounds
    for name in LAYER_COUNTERS:
        out[name] = tracer.counters[name] / traced_rounds
    runs = tracer.classify_searches
    out["detector.classify_search.runs"] = runs / traced_rounds
    out["detector.classify_search.useful_ratio"] = tracer.classify_useful / runs if runs else 0.0
    # the median untraced in-process command (cli only; the other workloads run no command)
    out["cli.command_ms"] = statistics.median(untraced_ms) if workload == "cli" else 0.0
    return out


def _import_seconds(root: Path) -> float:
    """import boolrg.cli in a fresh interpreter, less a bare interpreter start."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(code: str) -> float:
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return time.perf_counter() - t

    with_import, bare = [], []
    for _ in range(IMPORT_SAMPLES):
        with_import.append(spawn("import boolrg.cli"))
        bare.append(spawn("pass"))
    return statistics.median(with_import) - statistics.median(bare)


def _write_spans(tracer, path: Path) -> None:
    base = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[name, round(s - base, 7), round(e - base, 7), parent] for name, s, e, parent in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": ["layer", "start_s", "end_s", "parent"], "spans": rows}))


if __name__ == "__main__":
    sys.exit(main())
