import math

import numpy as np
import pytest

from boolrg.families import (
    majority,
    majority_sym,
    mod_p,
    mod_p_register_steps,
    mod_p_sym,
    parity,
    parity_sym,
    planted_near_polynomial,
    random_polynomial,
    random_table,
)
from boolrg.rg import annihilation_depth
from boolrg.symmetric import to_truth_table
from boolrg.truth_table import TruthTable, anf_to_table


def test_random_table_extremes():
    assert random_table(6, 0.0, 1) == TruthTable.constant(6, 0)
    assert random_table(6, 1.0, 1) == TruthTable.constant(6, 1)
    with pytest.raises(ValueError):
        random_table(4, 1.5, 0)


def test_random_table_matches_one_shot_draw():
    # the table is drawn in chunks; the bits are those of a single draw
    for seed in (1, 2, 3):
        for p in (0.25, 0.5):
            for n in range(21):
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
                packed = np.packbits(rng.random(1 << n) < p, bitorder="little")
                assert random_table(n, p, seed).bits == int.from_bytes(packed, "little")


def test_random_table_concentration():
    # binomial: |density - p0| <= 3*sqrt(p0(1-p0)/2^16) for a fixed seed
    t = random_table(16, 0.3, seed=123)
    sigma = math.sqrt(0.3 * 0.7 / 2**16)
    assert abs(float(t.density()) - 0.3) <= 3 * sigma


def test_random_table_deterministic():
    assert random_table(10, 0.4, 9).bits == random_table(10, 0.4, 9).bits
    assert random_table(10, 0.4, 9).bits != random_table(10, 0.4, 10).bits
    # frozen golden value guarding the generator/stream choice
    assert random_table(4, 0.5, 1).bits == 0b1011100011110111


def test_parity():
    assert parity(1) == TruthTable.from_outputs([0, 1])
    assert parity(3).evaluate([1, 1, 0]) == 0
    for n in (1, 2, 5, 10):
        t = parity(n)
        assert t.density().numerator * 2 == t.density().denominator
        for k in (0, 1, (1 << n) - 1):
            assert t.evaluate([(k >> j) & 1 for j in range(n)]) == (
                bin(k).count("1") % 2
            )


def test_majority_examples():
    assert majority(3).evaluate([1, 1, 0]) == 1
    assert majority(2).evaluate([1, 0]) == 0  # 1 is not more than half of 2
    expected = (math.comb(4, 3) + math.comb(4, 4)) / 2**4
    assert float(majority(4).density()) == expected


def test_majority_matches_popcount_oracle():
    for n in (1, 2, 5, 16):
        t = majority(n)
        for k in range(0, t.size, max(1, t.size // 4096)):
            x = [(k >> j) & 1 for j in range(n)]
            assert t.evaluate(x) == (2 * sum(x) > n)


def test_mod_p_examples():
    t = mod_p(3, 3)
    assert t.evaluate([1, 1, 1]) == 1
    for n in (1, 4, 7):
        assert mod_p(n, 3).evaluate([0] * n) == 1
    expected = (math.comb(4, 0) + math.comb(4, 3)) / 2**4
    assert float(mod_p(4, 3).density()) == expected


@pytest.mark.parametrize("n,p", [(6, 3), (9, 3), (10, 5), (16, 7)])
def test_mod_p_matches_popcount_oracle(n, p):
    t = mod_p(n, p)
    step = max(1, t.size // 4096)
    for k in range(0, t.size, step):
        x = [(k >> j) & 1 for j in range(n)]
        assert t.evaluate(x) == (sum(x) % p == 0)


def test_mod_p_register_invariant():
    # exactly one remainder register holds a 1 on every input, at every step
    for n, p in ((5, 3), (8, 5)):
        full = (1 << (1 << n)) - 1
        for regs in mod_p_register_steps(n, p):
            acc = 0
            for r in regs:
                assert acc & r == 0
                acc ^= r
            assert acc == full


def test_mod_p_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            mod_p(4, bad)
        with pytest.raises(ValueError):
            mod_p_sym(10, bad)


def test_symmetric_family_views_agree_with_tables():
    for n in (3, 8, 11):
        assert to_truth_table(parity_sym(n)) == parity(n)
        assert to_truth_table(majority_sym(n)) == majority(n)
        assert to_truth_table(mod_p_sym(n, 3)) == mod_p(n, 3)


def test_random_polynomial_extremes():
    assert random_polynomial(8, 3, 0.0, 1).terms == frozenset()
    one = random_polynomial(5, 0, 1.0, 1)
    assert one.terms == frozenset({frozenset()})
    assert anf_to_table(one) == TruthTable.constant(5, 1)
    with pytest.raises(ValueError):
        random_polynomial(4, 5, 0.5, 0)


def test_random_polynomial_degree_bound_and_annihilation():
    for seed in range(5):
        a = random_polynomial(10, 2, 0.4, seed)
        assert a.degree <= 2
        depth = annihilation_depth(anf_to_table(a))
        assert depth is not None and depth <= 3


def test_random_polynomial_deterministic():
    assert random_polynomial(9, 3, 0.5, 4) == random_polynomial(9, 3, 0.5, 4)


def test_planted_near_polynomial_consistency():
    plant = planted_near_polynomial(8, 2, 1 / 2**8, seed=5)
    assert plant.table == anf_to_table(plant.polynomial) ^ plant.noise
    assert plant.polynomial.degree <= 2

    clean = planted_near_polynomial(8, 2, 0.0, seed=5)
    assert clean.noise.is_zero()
    assert clean.table == anf_to_table(clean.polynomial)

    # expected mask weight is 2^n * fraction = 1 here; check a small bound
    weights = [
        planted_near_polynomial(8, 2, 1 / 2**8, seed=s).noise.weight()
        for s in range(30)
    ]
    assert sum(weights) / len(weights) < 4
    with pytest.raises(ValueError):
        planted_near_polynomial(8, 2, -0.1, 0)


def test_planted_survives_its_degree_in_derivatives():
    # a sparse remainder keeps the table alive past xi+1 decimations
    plant = planted_near_polynomial(12, 2, 1 / 2**6, seed=2)
    assert annihilation_depth(plant.table, cap=3) is None
