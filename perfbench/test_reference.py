"""The benchmark's references against brute force at small arity.

Each test also shows that the comparison the benchmark makes with the
reference rejects a perturbed output.  Run with
``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import reference as R


def _brute_density(values, n):
    return Fraction(sum(values[bin(k).count("1")] for k in range(1 << n)), 1 << n)


def _difference(values):
    return [a ^ b for a, b in zip(values, values[1:])]


def test_pascal_rows_and_exact_densities():
    rnd = random.Random(1)
    for n in range(0, 13):
        row = R.binomial_row(n)
        assert row == [math.comb(n, s) for s in range(n + 1)]
        if n:
            assert R.row_down(row) == R.binomial_row(n - 1)
        values = [rnd.getrandbits(1) for _ in range(n + 1)]
        exact = R.sym_density_exact(values, row)
        assert exact == _brute_density(values, n)
        assert exact + Fraction(1, 1 << n) != _brute_density(values, n)  # perturbed density


def test_lucas_jump_matches_repeated_differences():
    rnd = random.Random(2)
    for n in (1, 5, 17, 40):
        values = [rnd.getrandbits(1) for _ in range(n + 1)]
        stepped = list(values)
        for j in range(n + 1):
            assert R.lucas_jump(values, j) == stepped
            perturbed = list(stepped)
            perturbed[rnd.randrange(len(perturbed))] ^= 1
            assert R.lucas_jump(values, j) != perturbed
            stepped = _difference(stepped)


def test_symmetric_values_are_the_table_derivative():
    # decimating any labels of a sum-dependent table gives the jump-ahead values
    rnd = random.Random(3)
    n = 7
    values = [rnd.getrandbits(1) for _ in range(n + 1)]
    outputs = R.symmetric_outputs(values, n)
    for labels in ((1,), (2, 7), (3, 4, 6)):
        got = R.derivative(outputs, labels)
        want = R.symmetric_outputs(R.lucas_jump(values, len(labels)), n - len(labels))
        assert np.array_equal(got, want)


def test_derivative_is_the_xor_over_the_decimated_inputs():
    rnd = random.Random(4)
    n = 5
    outputs = np.array([rnd.getrandbits(1) for _ in range(1 << n)], dtype=np.uint8)
    labels = (2, 5)
    got = R.derivative(outputs, labels)
    rest = [v for v in range(1, n + 1) if v not in labels]
    for idx in range(1 << (n - len(labels))):
        base = sum(((idx >> i) & 1) << (v - 1) for i, v in enumerate(rest))
        want = 0
        for bits in itertools.product((0, 1), repeat=len(labels)):
            want ^= int(outputs[base + sum(b << (v - 1) for b, v in zip(bits, labels))])
        assert got[idx] == want


def _all_polys(n, xi):
    monos = [c for d in range(xi + 1) for c in itertools.combinations(range(1, n + 1), d)]
    k = np.arange(1 << n)
    tables = {m: np.all([(k >> (v - 1)) & 1 for v in m], axis=0).astype(np.uint8) if m else np.ones(1 << n, np.uint8)
              for m in monos}
    for mask in range(1 << len(monos)):
        chosen = [monos[j] for j in range(len(monos)) if mask >> j & 1]
        out = np.zeros(1 << n, np.uint8)
        for m in chosen:
            out ^= tables[m]
        yield sorted(chosen), out


def _plain_nearest(outputs, n, xi):
    best = None
    for key, table in _all_polys(n, xi):
        cand = (int((table ^ outputs).sum()), key)
        best = cand if best is None or cand < best else best
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nearest_affine_matches_enumeration(n):
    rnd = random.Random(n)
    for _ in range(20):
        outputs = np.array([rnd.getrandbits(1) for _ in range(1 << n)], dtype=np.uint8)
        dist, key = R.nearest_affine(outputs)
        assert (dist, key) == _plain_nearest(outputs, n, 1)
        assert (dist + 1, key) != _plain_nearest(outputs, n, 1)  # perturbed distance


def test_nearest_affine_tie_break_is_lexicographic():
    # the AND of two inputs is at distance 1 from four affine functions
    outputs = np.array([0, 0, 0, 1], dtype=np.uint8)
    dist, key = R.nearest_affine(outputs)
    assert dist == 1 and key == []  # the zero polynomial sorts first
    assert key != [(1,)]  # a tied but larger witness is rejected


@pytest.mark.parametrize("n,xi", [(3, 2), (4, 2), (4, 1)])
def test_brute_nearest_matches_enumeration(n, xi):
    rnd = random.Random(10 * n + xi)
    for _ in range(5):
        outputs = np.array([rnd.getrandbits(1) for _ in range(1 << n)], dtype=np.uint8)
        want = _plain_nearest(outputs, n, xi)
        assert R.brute_nearest(outputs, xi) == want
        if xi == 1:
            assert R.nearest_affine(outputs) == want
        dist, key = want
        assert R.brute_nearest(outputs, xi) != (dist, key + [(n,)])  # perturbed witness


def test_anf_terms_round_trip():
    rnd = random.Random(5)
    n = 6
    outputs = np.array([rnd.getrandbits(1) for _ in range(1 << n)], dtype=np.uint8)
    terms = R.anf_terms(outputs)
    assert np.array_equal(R.poly_outputs(n, terms), outputs)
    for key, table in itertools.islice(_all_polys(3, 3), 0, 256, 37):
        assert R.anf_terms(table) == key
    assert not np.array_equal(R.poly_outputs(n, terms[1:]), outputs)  # a dropped term shows


def test_iid_density_is_exact_after_decimation():
    # every table on 3 inputs, weighted by p**w (1-p)**(8-w): the weight of the
    # derivative over l labels is exactly Binomial(2**(3-l), p_l)
    p = Fraction(1, 4)
    for labels in ((1,), (1, 3)):
        cells = 1 << (3 - len(labels))
        dist = [Fraction(0)] * (cells + 1)
        for k in range(256):
            outputs = np.array([(k >> i) & 1 for i in range(8)], dtype=np.uint8)
            w = int(outputs.sum())
            dist[int(R.derivative(outputs, labels).sum())] += p**w * (1 - p) ** (8 - w)
        pl = Fraction(R.iid_density(0.25, len(labels)))
        assert dist == [math.comb(cells, j) * pl**j * (1 - pl) ** (cells - j) for j in range(cells + 1)]


def test_binomial_band_has_a_small_exact_tail():
    count, p = 1 << 10, Fraction(3, 8)
    lo, hi = R.binomial_band(count, float(p))
    outside = sum(math.comb(count, j) * p**j * (1 - p) ** (count - j) for j in range(count + 1) if not lo <= j <= hi)
    assert 0 < outside < Fraction(1, 10**7)
    sigma = math.sqrt(count * p * (1 - p))
    assert lo <= count * p <= hi
    assert lo <= count * p + 5.9 * sigma <= hi
    assert not lo <= count * p + 6.1 * sigma <= hi  # a perturbed weight is rejected
    assert not lo <= count * p - 6.1 * sigma <= hi


def test_residue_cycle():
    pats = [frozenset({0}), frozenset({0, 2}), frozenset({1}), frozenset({0, 2})]
    assert R.residue_cycle(pats) == (1, 2)
    assert R.residue_cycle(pats[:3]) == (None, None)
    assert R.residues([1, 0, 1, 1], 3) == frozenset({0, 2})


def _failures(check, out):
    import workloads

    checks = workloads.Checks()
    check(out, checks)
    return checks.failures


def test_workload_checks_reject_perturbed_program_outputs(tmp_path):
    B = pytest.importorskip("boolrg")
    import workloads as W

    out = W._run_sym("mod_p", 60, 3, 8)
    check = lambda o, c: W._check_sym("mod_p", 3, o, c, kept=False)  # noqa: E731
    assert _failures(check, out) == []
    trace = out["result"].trace
    steps = list(trace.steps)
    steps[2] = replace(steps[2], density=steps[2].density + Fraction(1, 1 << steps[2].remaining_arity))
    bad = replace(out["result"], trace=replace(trace, steps=tuple(steps)))
    assert _failures(check, dict(out, result=bad))

    op = W._detect_op("planted", lambda: W._planted(B.planted_near_polynomial(8, 1, 0.02, 3)), 1, True)
    out = op.run()
    assert _failures(op.check, out) == []
    exh = out["reps"]["exhaustive"]
    moved = B.Anf(8, exh.witness.terms ^ {frozenset({8})})
    assert _failures(op.check, dict(out, reps=dict(out["reps"], exhaustive=replace(exh, witness=moved))))

    build = lambda s: (B.random_table(10, 0.5, s), None, None)  # noqa: E731
    out = W._run_table(build, 7, 10, tmp_path / "t.bfrg")
    check = lambda o, c: W._check_table("random-p0.5", o, c)  # noqa: E731
    assert _failures(check, out) == []
    trace = out["traces"][0]
    steps = (replace(trace.steps[0], density=Fraction(0)),) + trace.steps[1:]
    traces = [replace(trace, steps=steps)] + out["traces"][1:]
    assert _failures(check, dict(out, traces=traces))


def test_cli_checks_reject_perturbed_command_outputs(tmp_path):
    pytest.importorskip("boolrg")
    import workloads as W

    ops = {op.name: op for op in W.cli_round(1, tmp_path)}
    log2m = sum(math.comb(64, j) for j in range(9))
    for name, old, new in (
        ("flow-parity", "\n1,11,1,1,1\n", "\n1,11,1,1,2\n"),  # density 1 after one step
        ("count", f",{log2m},", f",{log2m + 1},"),
        ("classify-random", '"label": "GENERIC"', '"label": "UNCLASSIFIED"'),
    ):
        code, stdout, stderr = ops[name].run()
        assert old in stdout
        assert _failures(ops[name].check, (code, stdout, stderr)) == []
        assert _failures(ops[name].check, (code, stdout.replace(old, new), stderr))
    code, stdout, stderr = ops["detect-over-cap"].run()
    assert _failures(ops["detect-over-cap"].check, (code, stdout, stderr)) == []
    assert _failures(ops["detect-over-cap"].check, (0, stdout, stderr))  # a wrong exit code


def _tags(failures):
    return {fault for fault, _ in failures}


def test_fault_tags_cover_only_the_known_failure(tmp_path):
    pytest.importorskip("boolrg")
    import workloads as W

    # float densities: errors up to the ceiling on the kept inputs only
    out = W._run_sym("mod_p", 5000, 3, 8)
    check = lambda o, c: W._check_sym("mod_p", 3, o, c, kept=True)  # noqa: E731
    assert _tags(_failures(check, out)) == {W.FAULT_FLOAT_DENSITY}
    assert _tags(_failures(lambda o, c: W._check_sym("mod_p", 3, o, c, kept=False), out)) == {None}
    trace = out["result"].trace
    steps = list(trace.steps)
    steps[1] = replace(steps[1], density=steps[1].density + 1e-3)
    bad = replace(out["result"], trace=replace(trace, steps=tuple(steps)))
    assert None in _tags(_failures(check, dict(out, result=bad)))

    # JSON round trip without an arity: only a witness rebuilt at its top label
    op = next(op for op in W.detect_round(0, tmp_path) if op.name == "x1+x3-n10")
    out = op.run()
    assert _tags(_failures(op.check, out)) == {W.FAULT_JSON_ARITY}
    back = out["backs"]["exhaustive"]
    moved = dict(out["backs"], exhaustive=replace(back, remainder_density=back.remainder_density + Fraction(1, 1024)))
    assert None in _tags(_failures(op.check, dict(out, backs=moved)))

    # sampled depth: an under-reported depth on the sparse polynomial only
    op = next(op for op in W.tables_round(0, tmp_path) if op.name == "sparse-poly-n20")
    out = op.run()
    assert _tags(_failures(op.check, out)) == {W.FAULT_SAMPLED_DEPTH}
    assert None in _tags(_failures(op.check, dict(out, depth=5)))  # over-reported
    assert None in _tags(_failures(lambda o, c: W._check_table("dense-poly", o, c), out))
