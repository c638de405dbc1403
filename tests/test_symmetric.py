import itertools
import math
import random
from fractions import Fraction

import pytest

from boolrg.families import majority_sym, mod_p_sym, parity_sym
from boolrg.rg import decimate, decimate_seq
from boolrg.symmetric import (
    EXACT_DENSITY_MAX_N,
    SymmetricFunction,
    _pascal_row,
    _row_down,
    from_truth_table,
    residue_pattern,
    sym_decimate,
    sym_density,
    sym_flow,
    to_truth_table,
)
from boolrg.truth_table import TruthTable


def random_sym(n, rnd):
    return SymmetricFunction(n, tuple(rnd.getrandbits(1) for _ in range(n + 1)))


def comb_density(f):
    """The density as one math.comb per output-1 sum: the slow reference."""
    total = sum(math.comb(f.n, s) for s, bit in enumerate(f.values) if bit)
    return Fraction(total, 2**f.n)


def test_validation():
    with pytest.raises(ValueError):
        SymmetricFunction(3, (0, 1))
    with pytest.raises(ValueError):
        SymmetricFunction(2, (0, 1, 2))
    with pytest.raises(ValueError):
        sym_decimate(SymmetricFunction(0, (1,)))


def test_mod3_first_decimation_pattern():
    # output changes iff the sum of the others is 0 or 2 mod 3
    g = sym_decimate(mod_p_sym(9, 3))
    assert g.values == tuple(1 if s % 3 in (0, 2) else 0 for s in range(9))
    assert residue_pattern(g, 3) == frozenset({0, 2})


def test_constant_decimates_to_zero():
    for value in (0, 1):
        f = SymmetricFunction(6, (value,) * 7)
        assert sym_decimate(f).values == (0,) * 6


def test_strict_majority_step_matches_full_table():
    # derived by expanding at n=8 and comparing against the table engine
    f = majority_sym(8)
    table_route = decimate(to_truth_table(f), 1)
    sym_route = sym_decimate(f)
    assert from_truth_table(table_route) == sym_route
    assert sym_route.values == tuple(1 if s == 4 else 0 for s in range(8))


def test_sym_density_examples():
    assert sym_density(SymmetricFunction(5, (1,) * 6)) == 1

    d = sym_density(sym_decimate(mod_p_sym(999, 3)))
    assert abs(float(d) - 2 / 3) < 0.01

    center = SymmetricFunction.from_predicate(100, lambda s: s == 50)
    exact = sym_density(center)
    assert exact == Fraction(math.comb(100, 50), 2**100)
    assert float(exact) == pytest.approx(0.0795892, rel=1e-5)


def test_sym_density_log_domain_agrees_at_boundary():
    rnd = random.Random(4)
    n = EXACT_DENSITY_MAX_N + 1
    values = tuple(rnd.getrandbits(1) for _ in range(n + 1))
    f = SymmetricFunction(n, values)
    log_domain = sym_density(f)
    exact = comb_density(f)
    assert isinstance(log_domain, float)
    assert abs(log_domain - float(exact)) < 1e-12


def test_pascal_row_and_row_down_match_comb():
    for n in range(65):
        assert _pascal_row(n) == [math.comb(n, s) for s in range(n + 1)]
        if n:
            assert _row_down(_pascal_row(n)) == [math.comb(n - 1, s) for s in range(n)]


def test_sym_density_matches_comb_on_every_value_vector():
    for n in range(11):
        for values in itertools.product((0, 1), repeat=n + 1):
            f = SymmetricFunction(n, values)
            d = sym_density(f)
            assert isinstance(d, Fraction)
            assert d == comb_density(f)


@pytest.mark.parametrize("n", [1000, *range(4089, 4098), 4100])
@pytest.mark.parametrize("family", ["mod3", "majority"])
def test_sym_flow_density_is_sym_density_at_every_step(family, n):
    # the carried row must give what a fresh sym_density gives, in type and
    # value; majority and mod 3 at n = 4100 cross EXACT_DENSITY_MAX_N at step 4
    f = mod_p_sym(n, 3) if family == "mod3" else majority_sym(n)
    densities = sym_flow(f, 8).trace.densities()
    g = f
    for ell, d in enumerate(densities):
        if ell:
            g = sym_decimate(g)
        expected = sym_density(g)
        assert type(d) is type(expected)
        assert d == expected
    if n in (1000, EXACT_DENSITY_MAX_N):  # the reference takes ~1 s near 4096
        assert densities[-1] == comb_density(g)


def test_sym_flow_parity_above_exact_arity():
    # the all-ones function after one step must read exactly 1 on the float path
    result = sym_flow(parity_sym(4132), 2)
    start, one, zero = result.trace.densities()
    assert start == pytest.approx(0.5, abs=1e-12)
    assert one == 1.0
    assert zero == 0


def test_expand_project_round_trip():
    rnd = random.Random(8)
    for n in (0, 1, 5, 11):
        f = random_sym(n, rnd)
        assert from_truth_table(to_truth_table(f)) == f


def test_from_truth_table_rejects_asymmetric():
    with pytest.raises(ValueError):
        from_truth_table(TruthTable.from_outputs([0, 1, 0, 0]))


def test_sym_decimate_commutes_with_table_decimation():
    rnd = random.Random(21)
    for _ in range(25):
        n = rnd.randint(1, 12)
        f = random_sym(n, rnd)
        assert from_truth_table(decimate(to_truth_table(f), rnd.randint(1, n))) == (
            sym_decimate(f)
        )


def test_full_decimation_equals_alternating_sum():
    # n steps leave the 0-ary constant XOR_s C(n,s) v[s] mod 2
    rnd = random.Random(34)
    for _ in range(10):
        n = rnd.randint(1, 12)
        f = random_sym(n, rnd)
        g = f
        for _ in range(n):
            g = sym_decimate(g)
        expected = 0
        for s, bit in enumerate(f.values):
            expected ^= (math.comb(n, s) & 1) & bit
        assert g.values == (expected,)
        table_route = decimate_seq(to_truth_table(f), tuple(range(1, n + 1)))
        assert table_route.bits == expected


def test_sym_flow_parity():
    result = sym_flow(parity_sym(9), 3)
    assert [float(d) for d in result.trace.densities()] == [0.5, 1.0, 0.0, 0.0]


def test_sym_flow_mod3_cycles_away_from_half():
    result = sym_flow(mod_p_sym(1000, 3), 30, modulus=3)
    assert result.cycle_start is not None
    assert result.cycle_period == 3
    assert result.patterns[1] == frozenset({0, 2})
    densities = result.cycle_densities()
    assert densities
    for d in densities:
        assert abs(float(d) - 0.5) > 0.05


def test_sym_flow_majority_deviation_bound():
    # density after j steps stays below 2*j/sqrt(n) in the early regime
    f = majority_sym(10000)
    result = sym_flow(f, 10)
    for j, step in enumerate(result.trace.steps, start=1):
        assert float(step.density) <= 2.0 * j / math.sqrt(10000)


def test_sym_flow_step_validation():
    with pytest.raises(ValueError):
        sym_flow(parity_sym(5), 6)
    with pytest.raises(ValueError):
        sym_flow(parity_sym(5), -1)


def test_residue_pattern_validation():
    with pytest.raises(ValueError):
        residue_pattern(parity_sym(4), 0)
