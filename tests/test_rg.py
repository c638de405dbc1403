import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolrg import rg
from boolrg.families import parity, random_polynomial
from boolrg.flow import empirical_flow
from boolrg.rg import (
    annihilation_depth,
    decimate,
    decimate_seq,
    first_zero_step,
    order_independence_check,
    sample_orders,
)
from boolrg.truth_table import N_MAX, Anf, TruthTable, anf_to_table, table_to_anf

AND2 = TruthTable.from_outputs([0, 0, 0, 1])


def brute_decimate(t: TruthTable, i: int) -> TruthTable:
    """Direct per-input evaluation of the derivative definition."""
    outs = []
    for k in range(1 << (t.n - 1)):
        x = [(k >> j) & 1 for j in range(t.n - 1)]
        x0 = x[: i - 1] + [0] + x[i - 1 :]
        x1 = x[: i - 1] + [1] + x[i - 1 :]
        outs.append(t.evaluate(x0) ^ t.evaluate(x1))
    return TruthTable.from_outputs(outs)


def old_decimate(t: TruthTable, i: int) -> TruthTable:
    """The unpack/XOR/pack kernel that the packed-buffer kernel replaced."""
    raw = t.bits.to_bytes(((1 << t.n) + 7) // 8, "little")
    arr = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[: 1 << t.n]
    arr = arr.reshape(-1, 2, 1 << (i - 1))
    packed = np.packbits(arr[:, 0, :] ^ arr[:, 1, :], bitorder="little")
    return TruthTable(t.n - 1, int.from_bytes(packed.tobytes(), "little"))


def brute_walk(t: TruthTable, order) -> list[TruthTable]:
    """Table after each step of ``order``, one brute-force derivative at a time."""
    remaining = list(range(1, t.n + 1))
    g, out = t, []
    for v in order:
        i = remaining.index(v) + 1
        remaining.remove(v)
        # the derivative of zero is zero: skip the brute force
        g = TruthTable.constant(g.n - 1, 0) if g.is_zero() else brute_decimate(g, i)
        out.append(g)
    return out


def random_table_local(n, rnd):
    return TruthTable(n, rnd.getrandbits(1 << n))


def exact_degree_poly(n, xi, base_seed):
    """Random polynomial resampled until its degree is exactly xi."""
    for k in range(50):
        a = random_polynomial(n, xi, 0.3, base_seed + 7919 * k)
        if a.degree == xi and (xi > 0 or a.terms):
            return a
    raise AssertionError("could not build an exact-degree polynomial")


def test_parity_decimates_to_constant_one():
    for n in (2, 3, 6):
        for i in range(1, n + 1):
            assert decimate(parity(n), i) == TruthTable.constant(n - 1, 1)


def test_and_decimation():
    assert decimate(AND2, 1) == TruthTable.from_outputs([0, 1])
    assert decimate(AND2, 2) == TruthTable.from_outputs([0, 1])


def test_constant_decimates_to_zero():
    for value in (0, 1):
        t = TruthTable.constant(4, value)
        for i in range(1, 5):
            assert decimate(t, i) == TruthTable.constant(3, 0)


def test_decimate_errors():
    with pytest.raises(ValueError):
        decimate(AND2, 0)
    with pytest.raises(ValueError):
        decimate(AND2, 3)
    with pytest.raises(ValueError):
        decimate(TruthTable.constant(0, 1), 1)


def test_decimate_matches_brute_force():
    # every label, down to n = 1..3 where the table is under two bytes
    rnd = random.Random(11)
    for n in range(1, 11):
        for t in (random_table_local(n, rnd), random_table_local(n, rnd)):
            for i in range(1, n + 1):
                assert decimate(t, i) == brute_decimate(t, i)


def test_decimate_matches_unpacking_kernel():
    rnd = random.Random(12)
    for n in range(11, 17):
        t = random_table_local(n, rnd)
        for i in range(1, n + 1):
            assert decimate(t, i) == old_decimate(t, i)


def walk_orders(n):
    if n <= 5:
        return list(itertools.permutations(range(1, n + 1)))
    return sample_orders(n, 32, seed=n)


@pytest.mark.parametrize("n", range(1, 13))
def test_walks_match_brute_force(n):
    # empirical_flow, decimate_seq and first_zero_step all run on walk();
    # each is checked at every step against a brute-force decimation
    rnd = random.Random(60 + n)
    poly = anf_to_table(random_polynomial(n, min(n, 2), 0.5, n))
    top = anf_to_table(Anf(n, frozenset({frozenset(range(n // 2 + 1, n + 1))})))
    for t in (random_table_local(n, rnd), poly, top, TruthTable.constant(n, 0)):
        first_zeros = []
        for order in walk_orders(n):
            tables = brute_walk(t, order)
            trace = empirical_flow(t, order)
            assert [(s.var, s.remaining_arity) for s in trace.steps] == [
                (v, g.n) for v, g in zip(order, tables)
            ]
            assert [s.density for s in trace.steps] == [
                Fraction(g.weight(), g.size) for g in tables
            ]
            assert decimate_seq(t, ()) == t
            for m, g in enumerate(tables, start=1):
                assert decimate_seq(t, order[:m]) == g
            zeros = [m for m, g in enumerate(tables, start=1) if g.is_zero()]
            fz = 0 if t.is_zero() else (zeros[0] if zeros else None)
            for cap in range(n + 1):
                expected = fz if fz is not None and fz <= cap else None
                assert first_zero_step(t, order, cap) == expected
            first_zeros.append(fz)
        if n <= 5:
            # every order tried: the depth over all subsets is the deepest
            # first zero, or None when some order never reaches zero
            depth = None if None in first_zeros else max(first_zeros)
            assert annihilation_depth(t) == depth


@pytest.mark.parametrize("numpy_count", [True, False])
def test_popcount_matches_weight(numpy_count, monkeypatch):
    if not numpy_count:  # as on numpy < 2, which has no bitwise_count
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    rnd = random.Random(14)
    for n in list(range(0, 17)) + [20]:
        for t in (random_table_local(n, rnd), TruthTable.constant(n, 1)):
            buf = t.buffer()
            assert rg.popcount(buf) == t.weight()
            assert rg._popcount_int(buf) == t.weight()


def test_decimate_seq_parity4():
    assert decimate_seq(parity(4), (1, 2)) == TruthTable.constant(2, 0)


def test_decimate_seq_degree2_any_triple_is_zero():
    a = Anf(4, frozenset({frozenset({1, 2}), frozenset({3})}))
    t = anf_to_table(a)
    for order in itertools.permutations(range(1, 5), 3):
        assert decimate_seq(t, order).is_zero()


def test_decimate_seq_empty_order_is_identity():
    rnd = random.Random(1)
    t = random_table_local(6, rnd)
    assert decimate_seq(t, ()) == t


def test_decimate_seq_is_fold_of_decimate_with_original_labels():
    rnd = random.Random(2)
    t = random_table_local(6, rnd)
    # decimating original labels (5, 2): after removing 2, label 5 sits at
    # position 4 of the remaining function
    assert decimate_seq(t, (2, 5)) == decimate(decimate(t, 2), 4)


def test_decimate_seq_equals_sum_over_settings():
    # the m-fold derivative is the XOR of f over all settings of the
    # decimated variables
    rnd = random.Random(3)
    for _ in range(10):
        n = rnd.randint(2, 8)
        t = random_table_local(n, rnd)
        m = rnd.randint(1, n)
        labels = tuple(sorted(rnd.sample(range(1, n + 1), m)))
        g = decimate_seq(t, labels)
        keep = [j for j in range(1, n + 1) if j not in labels]
        for k in range(1 << (n - m)):
            xkeep = {lab: (k >> idx) & 1 for idx, lab in enumerate(keep)}
            acc = 0
            for setting in itertools.product((0, 1), repeat=m):
                x = [0] * n
                for idx, lab in enumerate(labels):
                    x[lab - 1] = setting[idx]
                for lab, val in xkeep.items():
                    x[lab - 1] = val
                acc ^= t.evaluate(x)
            assert acc == g.evaluate([(k >> j) & 1 for j in range(n - m)])


def test_decimate_seq_rejects_bad_orders():
    with pytest.raises(ValueError):
        decimate_seq(AND2, (1, 1))
    with pytest.raises(ValueError):
        decimate_seq(AND2, (3,))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_decimation_is_linear(n, rnd):
    a = TruthTable(n, rnd.getrandbits(1 << n))
    b = TruthTable(n, rnd.getrandbits(1 << n))
    i = rnd.randint(1, n)
    assert decimate(a ^ b, i) == decimate(a, i) ^ decimate(b, i)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_degree_drops_by_at_least_one(n, rnd):
    xi = rnd.randint(1, n - 1)
    a = random_polynomial(n, xi, 0.4, rnd.getrandbits(30))
    t = anf_to_table(a)
    d = table_to_anf(t).degree
    if d < 1 or t.is_zero():
        return
    i = rnd.randint(1, n)
    g = decimate(t, i)
    assert g.is_zero() or table_to_anf(g).degree <= d - 1


def test_annihilation_depth_examples():
    assert annihilation_depth(parity(6)) == 2
    assert annihilation_depth(parity(12)) == 2
    assert annihilation_depth(TruthTable.constant(5, 1)) == 1
    assert annihilation_depth(TruthTable.constant(5, 0)) == 0


def test_annihilation_depth_exact_on_sparse_monomials():
    # only orders that start inside a sparse monomial's support keep it
    # alive, and a sample of orders rarely draws one: it reads a depth
    # below degree + 1
    x1_to_x6 = Anf(12, frozenset({frozenset(range(1, 7))}))
    assert annihilation_depth(anf_to_table(x1_to_x6)) == 7
    x7_x14_x17 = Anf(20, frozenset({frozenset({7, 14, 17})}))
    assert annihilation_depth(anf_to_table(x7_x14_x17)) == 4


def test_annihilation_depth_matches_degree_plus_one():
    for n, seed in ((7, 5), (8, 9)):
        a = exact_degree_poly(n, 3, seed)
        assert annihilation_depth(anf_to_table(a)) == 4
    a = exact_degree_poly(10, 3, 17)
    assert table_to_anf(anf_to_table(a)).degree == 3
    assert annihilation_depth(anf_to_table(a)) == 4


def test_annihilation_depth_is_degree_plus_one_at_every_arity():
    rnd = random.Random(37)
    for n in range(N_MAX + 1):
        assert annihilation_depth(TruthTable.constant(n, 0), cap=-1) == 0
        for d in sorted({0, min(n, 1), min(n, 3), n // 2, n}):
            # one monomial of degree d over a few random lower-degree ones
            labels = range(1, n + 1)
            terms = {frozenset(rnd.sample(labels, d))}
            terms |= {frozenset(rnd.sample(labels, rnd.randrange(d))) for _ in range(3 if d else 0)}
            t = anf_to_table(Anf(n, frozenset(terms)))
            assert annihilation_depth(t) == (d + 1 if d + 1 <= n else None), (n, d)
            assert annihilation_depth(t, cap=d) is None
            if d + 1 <= n:
                assert annihilation_depth(t, cap=d + 1) == d + 1


def depth_over_all_subsets(t: TruthTable, cap: int) -> int | None:
    """The subset-lattice walk that annihilation_depth ran for arity <= 8.

    The derivative over a set of labels is order independent, so walking
    the lattice level by level checks every order at once.
    """
    if t.is_zero():
        return 0
    level = {(): t.buffer()}
    for m in range(1, cap + 1):
        next_level = {}
        all_zero = True
        for subset, g in level.items():
            start = subset[-1] + 1 if subset else 1
            for v in range(start, t.n + 1):
                # v's digit among the labels left: v - 1 less those removed
                h = rg._halve(g, v - 1 - len(subset))
                next_level[subset + (v,)] = h
                if h.any():
                    all_zero = False
        if all_zero:
            return m
        level = next_level
    return None


def test_annihilation_depth_matches_subset_lattice():
    rnd = random.Random(31)
    for n in range(6, 11):
        tables = [random_table_local(n, rnd) for _ in range(4)]
        tables += [
            anf_to_table(random_polynomial(n, xi, 0.3, rnd.getrandbits(30)))
            for xi in range(n + 1)
        ]
        tables += [TruthTable.constant(n, 0), TruthTable.constant(n, 1), parity(n)]
        for t in tables:
            for cap in range(-1, n + 2):
                assert annihilation_depth(t, cap=cap) == depth_over_all_subsets(
                    t, min(cap, n)
                ), (n, t.bits, cap)


def test_annihilation_depth_none_under_cap():
    rnd = random.Random(13)
    t = random_table_local(10, rnd)
    assert annihilation_depth(t, cap=4) is None


def test_annihilation_depth_explicit_orders():
    t = anf_to_table(exact_degree_poly(9, 2, 23))
    orders = sample_orders(9, 16, 9, seed=1)
    assert annihilation_depth(t, orders=orders) == 3
    with pytest.raises(ValueError):
        annihilation_depth(t, orders=[])
    with pytest.raises(ValueError):
        annihilation_depth(t, orders=[(1, 1, 2)])


def test_first_zero_step():
    t = parity(6)
    assert first_zero_step(t, (3, 1, 4), cap=3) == 2
    assert first_zero_step(TruthTable.constant(4, 0), (1,), cap=1) == 0
    rnd = random.Random(19)
    assert first_zero_step(random_table_local(8, rnd), (1, 2), cap=2) is None


def test_order_independence_examples():
    rnd = random.Random(29)
    t = random_table_local(6, rnd)
    assert order_independence_check(t, (2, 5))
    assert order_independence_check(t, (4,))
    t8 = random_table_local(8, rnd)
    assert order_independence_check(t8, (1, 3, 5, 7))  # all 24 orderings
    with pytest.raises(ValueError):
        order_independence_check(t, (0, 1))


def test_sample_orders_deterministic_and_valid():
    a = sample_orders(10, 5, 7, seed=42)
    b = sample_orders(10, 5, 7, seed=42)
    assert a == b
    assert sample_orders(10, 5, 7, seed=43) != a
    for order in a:
        assert len(order) == 7
        assert len(set(order)) == 7
        assert all(1 <= v <= 10 for v in order)
