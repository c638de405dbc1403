"""The benchmark's four workloads: one round of operations each, with checks.

A round is a fixed list of operations.  ``round_ops(workload, seed, work)``
builds it; every operation's ``run`` is the timed work and its ``check``
compares the output with ``reference`` or with a property the method must
have, outside the timed phase.  A check tagged with a fault name marks a
known fault of the program: an operation whose only failed checks carry
such a tag counts as failed, and any other failed check makes the run
incorrect.  A tag is given only on the fixed operations a fault is kept on,
and only when the output differs in the way the fault is known to make it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import boolrg as B
import reference as R

# Faults of the program kept as failing operations, on inputs fixed apart
# from the seed, until they are mended.
FAULT_SAMPLED_DEPTH = "sampled-annihilation-depth"
FAULT_JSON_ARITY = "json-witness-arity"
FAULT_FLOAT_DENSITY = "float-density-error"

FLOAT_DENSITY_TOL = 1e-12  # documented absolute error of sym_density above 4096
# Largest float density error still put down to the float-density fault; the
# errors seen on its inputs reach 7.1e-12, and a larger one counts as wrong.
FLOAT_FAULT_CEILING = 1e-10


class Checks:
    """Collects failed checks as (fault tag or None, description)."""

    def __init__(self) -> None:
        self.failures: list[tuple[str | None, str]] = []

    def expect(self, ok: bool, what: str, fault: str | None = None) -> None:
        if not ok:
            self.failures.append((fault, what))


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Checks], None]
    meta: dict = field(default_factory=dict)


def round_ops(workload: str, seed: int, work: Path) -> list[Op]:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return {
        "tables": tables_round,
        "symmetric": symmetric_round,
        "detect": detect_round,
        "cli": cli_round,
    }[workload](seed, work)


def _predicate(family: str, n: int, p: int = 0) -> list[int]:
    if family == "majority":
        return [int(2 * s > n) for s in range(n + 1)]
    if family == "mod_p":
        return [int(s % p == 0) for s in range(n + 1)]
    if family == "parity":
        return [s & 1 for s in range(n + 1)]
    raise ValueError(family)


def _sym_flow_density(values: list[int], n: int, ell: int) -> Fraction:
    """Density after ell decimations of the table of a sum-dependent function."""
    return R.sym_density_exact(R.lucas_jump(values, ell), R.binomial_row(n - ell))


# --- tables ------------------------------------------------------------------

TABLE_STEPS = 5
SPARSE_SEED = 1  # fixed: sparse polynomials are the sampled-depth fault's inputs


def _table_orders(n: int) -> list[tuple[int, ...]]:
    c = n // 2
    return [
        tuple(range(1, TABLE_STEPS + 1)),
        tuple(range(c - 2, c - 2 + TABLE_STEPS)),
        tuple(range(n, n - TABLE_STEPS, -1)),
    ]


PARITY_22 = B.Anf(22, frozenset(frozenset({v}) for v in range(1, 23)))  # its polynomial form


def tables_round(seed: int, work: Path) -> list[Op]:
    fam = B.families
    specs = [
        ("random-p0.5", 24, lambda s: (fam.random_table(24, 0.5, s), None, None)),
        ("random-p0.25", 21, lambda s: (fam.random_table(21, 0.25, s), None, None)),
        ("dense-poly", 20, lambda s: _poly(fam.random_polynomial(20, 3, 0.5, s))),
        ("sparse-poly", 20, lambda s: _poly(fam.random_polynomial(20, 3, 0.002, SPARSE_SEED))),
        ("planted", 20, lambda s: _planted(fam.planted_near_polynomial(20, 2, 0.01, s))),
        ("majority", 21, lambda s: (fam.majority(21), None, None)),
        ("mod_p3", 20, lambda s: (fam.mod_p(20, 3), None, None)),
        ("mod_p5", 21, lambda s: (fam.mod_p(21, 5), None, None)),
        ("parity", 22, lambda s: (fam.parity(22), PARITY_22, None)),
    ]
    ops = []
    for k, (name, n, build) in enumerate(specs):
        op_seed = seed * 1000 + k
        path = work / f"{name}-{n}.bfrg"
        ops.append(
            Op(
                f"{name}-n{n}",
                lambda build=build, op_seed=op_seed, n=n, path=path: _run_table(build, op_seed, n, path),
                lambda out, c, name=name: _check_table(name, out, c),
            )
        )
    return ops


def _poly(anf):
    return B.truth_table.anf_to_table(anf), anf, None


def _planted(planted):
    return planted.table, None, planted


def _run_table(build, op_seed: int, n: int, path: Path) -> dict:
    table, anf, planted = build(op_seed)
    traces = [B.flow.empirical_flow(table, order) for order in _table_orders(n)]
    report = B.flow.classify(table)
    depth = B.rg.annihilation_depth(table) if anf is not None else None
    B.truth_table.write_table(table, path)
    back = B.truth_table.read_table(path)
    return {"table": table, "anf": anf, "planted": planted, "traces": traces,
            "report": report, "depth": depth, "back": back}


def _check_table(name: str, out: dict, c: Checks) -> None:
    t, traces = out["table"], out["traces"]
    n = t.n
    for order, trace in zip(_table_orders(n), traces):
        a = B.rg.decimate_seq(t, order)
        b = B.rg.decimate_seq(t, order[::-1])
        c.expect(a == b, f"order {order} and its reverse give different tables")
        c.expect(a.density() == trace.steps[-1].density, f"trace along {order} ends off decimate_seq")
    if name.startswith("random"):
        p0 = 0.5 if name == "random-p0.5" else 0.25
        for trace in traces:
            for ell, d in enumerate(trace.densities()):
                cells = 1 << (n - ell)
                lo, hi = R.binomial_band(cells, R.iid_density(p0, ell))
                c.expect(lo <= d * cells <= hi, f"density {float(d)} after {ell} steps outside the binomial band")
    elif name in ("majority", "mod_p3", "mod_p5", "parity"):
        p = {"mod_p3": 3, "mod_p5": 5}.get(name, 0)
        values = _predicate({"majority": "majority", "parity": "parity"}.get(name, "mod_p"), n, p)
        for ell in range(TABLE_STEPS + 1):
            exact = _sym_flow_density(values, n, ell)
            c.expect(all(tr.density_at(ell) == exact for tr in traces), f"density after {ell} steps is not the binomial sum {exact}")
    elif name == "planted":
        planted = out["planted"]
        xi = 2
        bound = (1 << (xi + 1)) * planted.noise.density()
        c.expect(all(tr.density_at(xi + 1) <= bound for tr in traces), "planted density after xi+1 steps exceeds 2**(xi+1) * noise")
    anf = out["anf"]
    if anf is not None:
        degree = max((len(term) for term in anf.terms), default=0)
        c.expect(all(tr.density_at(degree + 1) == 0 for tr in traces if len(tr.steps) > degree), "polynomial survives degree+1 steps")
        # the sampled-depth fault under-reports: a depth in 1..degree, and
        # classify's xi one below the deepest first zero of its own traces
        kept = name == "sparse-poly"
        depth = out["depth"]
        under = kept and depth is not None and 1 <= depth <= degree
        c.expect(depth == degree + 1, f"annihilation_depth {depth} != degree {degree} + 1",
                 FAULT_SAMPLED_DEPTH if under else None)
        rep = out["report"]
        zeros = [_first_zero(tr) for tr in rep.traces]
        under = (kept and rep.label == B.Phase.ANNIHILATED and None not in zeros
                 and rep.xi == max(zeros) - 1 < degree)
        c.expect(rep.label == B.Phase.ANNIHILATED and rep.xi == degree,
                 f"classify gave {rep.label.value} xi={rep.xi}, degree is {degree}",
                 FAULT_SAMPLED_DEPTH if under else None)
    c.expect(out["back"] == t, "BFRG read differs from the table written")


def _first_zero(trace) -> int | None:
    return next((ell for ell, d in enumerate(trace.densities()) if d == 0), None)


# --- symmetric -----------------------------------------------------------------

def symmetric_round(seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    off = lambda: rng.randrange(8)  # noqa: E731  arity offset drawn from the seed
    specs = [
        # exact density path (arity <= EXACT_DENSITY_MAX_N = 4096)
        ("mod_p", 1000 + off(), 3, 30),
        ("mod_p", 1000 + off(), 7, 16),
        ("mod_p", 1000 + off(), 5, 8),
        ("parity", 1000 + off(), 0, 8),
        ("majority", 2000 + off(), 0, 8),
        ("majority", 4089 + off(), 0, 8),
        # float density path at fixed arities: whether a float density misses
        # its documented error depends on the arity, so the seed picks none
        ("majority", 4100, 0, 30),
    ]
    # the float-density fault's inputs
    faulty = [
        ("majority", 9000, 0, 30),
        ("mod_p", 5000, 3, 8),
        ("mod_p", 6400, 3, 8),
        ("mod_p", 10000, 3, 8),
    ]
    return [
        Op(f"{family}{p or ''}-n{n}-s{steps}",
           lambda family=family, n=n, p=p, steps=steps: _run_sym(family, n, p, steps),
           lambda out, c, family=family, p=p, kept=kept: _check_sym(family, p, out, c, kept))
        for kept, group in ((False, specs), (True, faulty))
        for family, n, p, steps in group
    ]


def _run_sym(family: str, n: int, p: int, steps: int) -> dict:
    fam = B.families
    f = {"mod_p": lambda: fam.mod_p_sym(n, p), "majority": lambda: fam.majority_sym(n),
         "parity": lambda: fam.parity_sym(n)}[family]()
    result = B.symmetric.sym_flow(f, steps, p or None)
    return {"f": f, "result": result, "report": B.flow.classify(f)}


# Reference values (as bytes, to keep the worker's peak memory the
# program's), exact density and residue pattern after each step, by
# (family, n, p, steps).  Inputs repeat across rounds (the float-path ones in
# every round), so each reference is built once per run.
_SYM_REFERENCES: dict[tuple, list] = {}


def _sym_references(family: str, n: int, p: int, steps: int) -> list:
    key = (family, n, p, steps)
    if key not in _SYM_REFERENCES:
        values = _predicate(family, n, p)
        row = R.binomial_row(n)
        refs = []
        for ell in range(steps + 1):
            if ell:
                row = R.row_down(row)
            ref = R.lucas_jump(values, ell)
            refs.append((bytes(ref), R.sym_density_exact(ref, row), R.residues(ref, p) if p else None))
        _SYM_REFERENCES[key] = refs
    return _SYM_REFERENCES[key]


def _check_sym(family: str, p: int, out: dict, c: Checks, kept: bool) -> None:
    f, result, report = out["f"], out["result"], out["report"]
    n = f.n
    c.expect(list(f.values) == _predicate(family, n, p), "generated values differ from the predicate")
    densities = result.trace.densities()
    refs = _sym_references(family, n, p, len(densities) - 1)
    g = f
    patterns = []
    for ell, (d, (ref, exact, pattern)) in enumerate(zip(densities, refs)):
        if ell:
            g = B.symmetric.sym_decimate(g)
        c.expect(bytes(g.values) == ref, f"values after {ell} steps differ from the Lucas jump-ahead")
        if isinstance(d, Fraction):
            c.expect(d == exact, f"exact density after {ell} steps is off the Pascal row")
        else:
            err = abs(Fraction(d) - exact)
            fault = FAULT_FLOAT_DENSITY if kept and err <= FLOAT_FAULT_CEILING else None
            c.expect(err <= FLOAT_DENSITY_TOL, f"float density after {ell} steps off by {float(err):.2e}", fault)
        patterns.append(pattern)
    if p:
        c.expect(list(result.patterns) == patterns, "residue patterns differ from the values")
        c.expect((result.cycle_start, result.cycle_period) == R.residue_cycle(patterns), "residue cycle differs")
    common = min(len(report.traces[0].densities()), len(densities))
    c.expect(report.traces[0].densities()[:common] == densities[:common], "classify traced other densities")
    if family == "parity":
        c.expect(report.label == B.Phase.ANNIHILATED and report.xi == 1, f"parity classified {report.label.value} xi={report.xi}")


# --- detect --------------------------------------------------------------------

PLANTED_FAULT_SEED = 0  # classify finds a witness without x12 on this input


def detect_round(seed: int, work: Path) -> list[Op]:
    fam = B.families
    seeded = [
        ("planted", 5, 2, 0.05), ("planted", 5, 2, 0.03), ("random", 5, 2, None),
        ("planted", 7, 1, 0.03), ("planted", 8, 1, 0.02), ("random", 9, 1, None),
        ("planted", 10, 1, 0.01), ("affine", 11, 1, None), ("planted", 11, 1, 0.01),
        ("planted", 12, 1, 0.005), ("random", 13, 1, None), ("random", 14, 1, None),
        ("random", 15, 1, None), ("random", 16, 1, None),
    ]
    # Planted tables stop at n = 12: whether classify runs its exact search
    # on them depends on the seed, and above n = 12 that search would make
    # an operation's time depend on the seed too.  The n = 16 probe (K = 17)
    # is the longest operation by far and the n = 15 probe the next;
    # op_tail_ms falls among the samples of the latter (see worker.MIN_ROUNDS).
    ops = []
    for k, (kind, n, xi, noise) in enumerate(seeded):
        s = seed * 1000 + k
        if kind == "planted":
            build = lambda n=n, xi=xi, noise=noise, s=s: _planted(fam.planted_near_polynomial(n, xi, noise, s))
        elif kind == "random":
            build = lambda n=n, s=s: (fam.random_table(n, 0.5, s), None, None)
        else:
            build = lambda n=n, s=s: _poly(fam.random_polynomial(n, 1, 0.5, s))
        name = f"{kind}-n{n}-xi{xi}"
        if any(op.name == name for op in ops):
            name += f"-noise{noise}"
        ops.append(_detect_op(name, build, xi, with_arity=True))
    # The JSON fault's inputs, fixed apart from the seed: witnesses without
    # their top label, read back without an arity as the CLI's JSON must be.
    x1_x3 = B.Anf(10, frozenset({frozenset({1}), frozenset({3})}))
    ops.append(_detect_op("x1+x3-n10", lambda: _poly(x1_x3), 1, with_arity=False))
    ops.append(_detect_op("near-one-n9", lambda: (B.TruthTable(9, (1 << 512) - 2), None, None), 1, with_arity=False))
    ops.append(_detect_op("planted-fixed-n12", lambda: _planted(fam.planted_near_polynomial(12, 1, 0.01, PLANTED_FAULT_SEED)), 1, with_arity=False))
    return ops


def _detect_op(name: str, build, xi: int, with_arity: bool) -> Op:
    return Op(name, lambda: _run_detect(build, xi, with_arity),
              lambda out, c: _check_detect(xi, with_arity, out, c))


def _run_detect(build, xi: int, with_arity: bool) -> dict:
    D = B.detector
    table, _, planted = build()
    n = table.n
    reps = {
        "sieve": D.derivative_sieve(table, xi),
        "truncation": D.anf_truncation(table, xi),
        "exhaustive": D.exhaustive_nearest_polynomial(table, xi),
    }
    arity = n if with_arity else None
    backs = {k: D.decomposition_from_json(D.decomposition_to_json(r), arity) for k, r in reps.items()}
    report = back_report = None
    if n <= 15:
        report = B.flow.classify(table)
        back_report = B.flow.classification_from_json(B.flow.classification_to_json(report))
    return {"table": table, "planted": planted, "reps": reps, "backs": backs,
            "report": report, "back_report": back_report}


def _check_detect(xi: int, with_arity: bool, out: dict, c: Checks) -> None:
    t, reps = out["table"], out["reps"]
    n = t.n
    outputs = R.bits_to_outputs(t.bits, n)
    dist, key = R.nearest_affine(outputs) if xi == 1 else R.brute_nearest(outputs, xi)
    exh, trunc, sieve = reps["exhaustive"], reps["truncation"], reps["sieve"]
    c.expect(exh.remainder_density == Fraction(dist, 1 << n), f"exhaustive distance {exh.remainder_density} != reference {dist}/2**{n}")
    c.expect(exh.witness.sorted_terms() == key, f"exhaustive witness {exh.witness.sorted_terms()} != reference {key}")
    c.expect(sieve.remainder_density <= exh.remainder_density <= trunc.remainder_density, "sieve <= exhaustive <= truncation fails")
    if out["planted"] is not None:
        c.expect(exh.remainder_density <= out["planted"].noise.density(), "exhaustive exceeds the planted noise density")
    low = [term for term in R.anf_terms(outputs) if len(term) <= xi]
    c.expect(trunc.witness.sorted_terms() == low, "truncation witness is not the low-degree part of the ANF")
    wdist = int((outputs ^ R.poly_outputs(n, low)).sum())
    c.expect(trunc.remainder_density == Fraction(wdist, 1 << n), "truncation remainder is not the witness distance")
    for k, rep in reps.items():
        back = out["backs"][k]
        fault = None if with_arity else _arity_fault(back, rep, n)
        c.expect(back == rep, f"{k} report changed in its JSON round trip", fault)
    report, back = out["report"], out["back_report"]
    if report is not None:
        det = report.detector
        if det is not None and det.method == "EXHAUSTIVE" and report.xi == xi:
            c.expect(det == exh, "classify's exact search disagrees with exhaustive_nearest_polynomial")
        if with_arity and back.detector is not None and back.detector.witness is not None:
            # the seeded check leaves the witness arity to the fixed inputs:
            # whether it shows depends on the witness holding x_n
            witness = B.Anf(n, back.detector.witness.terms)
            back = replace(back, detector=replace(back.detector, witness=witness))
        fault = None
        if not with_arity and replace(back, detector=report.detector) == report:
            fault = _arity_fault(back.detector, report.detector, n)
        c.expect(back == report, "classification report changed in its JSON round trip", fault)


def _arity_fault(back, rep, n: int) -> str | None:
    """FAULT_JSON_ARITY when a decomposition report read back without an
    arity differs only in its witness, rebuilt at its largest label."""
    if back is None or rep is None or back.witness is None:
        return None
    terms = back.witness.terms
    top = max((max(term, default=0) for term in terms), default=0)
    if back.witness.n != top or replace(back, witness=B.Anf(n, terms)) != rep:
        return None
    return FAULT_JSON_ARITY


# --- cli -----------------------------------------------------------------------

def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The README's commands, in its order, then an exhaustive probe over the
    cap.  The seeded probes take the round seed; commands whose label the
    README documents keep the README's seed."""
    s = str(seed)
    return [
        ("flow-parity", ["flow", "--family", "parity", "--n", "12", "--steps", "3"]),
        ("flow-random", ["flow", "--family", "random", "--n", "18", "--p0", "0.25", "--steps", "6", "--seed", s]),
        ("gen-majority", ["gen", "--family", "majority", "--n", "9", "--seed", "0", "--out", "maj.bfrg"]),
        ("flow-file", ["flow", "--file", "maj.bfrg", "--steps", "2", "--order", "3,1"]),
        ("sym-flow", ["sym-flow", "--family", "mod_p", "--n", "999", "--p", "3", "--steps", "30"]),
        ("classify-mod_p", ["classify", "--family", "mod_p", "--p", "3", "--n", "1000"]),
        ("classify-poly", ["classify", "--family", "poly", "--xi", "3", "--n", "12", "--seed", "1"]),
        ("classify-random", ["classify", "--family", "random", "--p0", "0.5", "--n", "16", "--seed", "2"]),
        ("detect-sieve", ["detect", "--family", "planted", "--n", "12", "--xi", "2", "--noise", "0.002", "--seed", s, "--method", "sieve"]),
        ("detect-truncate", ["detect", "--file", "maj.bfrg", "--method", "truncate", "--detect-xi", "3"]),
        ("count", ["count", "--n", "64,256,1024", "--xi", "sqrt"]),
        ("detect-over-cap", ["detect", "--family", "random", "--n", "8", "--xi", "3", "--seed", s, "--method", "exhaustive"]),
    ]


def run_cli(args: list[str], work: Path, env: dict) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "boolrg.cli", *args], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_round(seed: int, work: Path) -> list[Op]:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return [
        Op(name, lambda args=args: run_cli(args, work, env),
           lambda out, c, name=name: _check_cli(name, out, c, work), {"args": args})
        for name, args in cli_commands(seed)
    ]


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _csv_densities(rows: list[dict]) -> list:
    if "density_num" in rows[0]:
        return [Fraction(int(r["density_num"]), int(r["density_den"])) for r in rows]
    return [float(r["density_real"]) for r in rows]


def _check_cli(name: str, out: tuple[int, str, str], c: Checks, work: Path) -> None:
    code, stdout, stderr = out
    if name == "detect-over-cap":
        c.expect(code == 4 and stdout == "", f"over-cap exhaustive detect exited {code}")
        return
    if name.startswith("detect"):
        c.expect(code in (0, 3), f"{name} exited {code}: {stderr.strip()}")
    else:
        c.expect(code == 0, f"{name} exited {code}: {stderr.strip()}")
    if code not in (0, 3):
        return
    maj9 = _predicate("majority", 9)
    if name.startswith("flow") or name == "sym-flow":
        rows = _csv_rows(stdout)
        densities = _csv_densities(rows)
        if name == "flow-parity":
            c.expect(densities == [Fraction(1, 2), 1, 0, 0], f"parity flow reads {densities}")
        elif name == "flow-random":
            for ell, (row, d) in enumerate(zip(rows, densities)):
                cells = 1 << (18 - ell)
                lo, hi = R.binomial_band(cells, R.iid_density(0.25, ell))
                c.expect(lo <= d * cells <= hi, f"random flow density {float(d)} at step {ell} outside the binomial band")
                c.expect(abs(float(row["analytic_density"]) - R.iid_density(0.25, ell)) < 1e-12, "analytic column off")
        elif name == "flow-file":
            # labels 3 then 1 of a sum-dependent table: any two labels
            c.expect(densities == [_sym_flow_density(maj9, 9, ell) for ell in range(3)], f"majority flow reads {densities}")
        else:
            values = _predicate("mod_p", 999, 3)
            row = R.binomial_row(999)
            patterns = []
            for ell, d in enumerate(densities):
                if ell:
                    row = R.row_down(row)
                ref = R.lucas_jump(values, ell)
                patterns.append(R.residues(ref, 3))
                c.expect(d == float(R.sym_density_exact(ref, row)), f"sym-flow density at step {ell} off the Pascal row")
            start, period = R.residue_cycle(patterns)
            c.expect(f"residue cycle: start={start} period={period}" in stderr, "residue cycle note differs")
        return
    if name == "gen-majority":
        data = (work / "maj.bfrg").read_bytes()
        expected = b"BFRG 1 n=9\n" + np.packbits(R.symmetric_outputs(maj9, 9), bitorder="little").tobytes()
        c.expect(data == expected, "maj.bfrg differs from the majority table")
        return
    if name == "count":
        rows = _csv_rows(stdout)
        c.expect([int(r["n"]) for r in rows] == [64, 256, 1024], "count rows")
        for r in rows:
            n, xi = int(r["n"]), int(r["xi"])
            c.expect(xi == math.isqrt(n - 1) + 1, f"xi=sqrt gave {xi} at n={n}")
            c.expect(int(r["log2M"]) == sum(math.comb(n, j) for j in range(xi + 1)), f"log2M off at n={n}")
            c.expect(float(r["margin"]) < 0, f"margin {r['margin']} not below 0 at n={n}")
        return
    obj = json.loads(stdout)
    if name.startswith("detect"):
        c.expect(code == (0 if obj["meets_bound"] else 3), f"{name} exit {code} disagrees with meets_bound")
        if name == "detect-truncate":
            outputs = R.symmetric_outputs(maj9, 9)
            low = [term for term in R.anf_terms(outputs) if len(term) <= 3]
            c.expect([tuple(m) for m in obj["witness_monomials"]] == low, "truncation witness of maj.bfrg")
            dist = int((outputs ^ R.poly_outputs(9, low)).sum())
            c.expect(Fraction(obj["remainder_num"], obj["remainder_den"]) == Fraction(dist, 512), "truncation remainder of maj.bfrg")
        return
    expected = {"classify-mod_p": ("COMPOSITE_SUSPECT", None), "classify-poly": ("ANNIHILATED", 3),
                "classify-random": ("GENERIC", None)}[name]
    c.expect((obj["label"], obj["xi"]) == expected, f"{name} labelled {obj['label']} xi={obj['xi']}")
