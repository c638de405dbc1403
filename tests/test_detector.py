import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from oracles import (
    gray_walk_nearest,
    int_degree_density_profile,
    int_projection_distance,
    term_filter_truncation,
)

from boolrg import detector, rg
from boolrg.detector import (
    CapacityError,
    anf_truncation,
    decomposition_from_json,
    decomposition_to_json,
    degree_density_profile,
    derivative_sieve,
    detection_bound,
    exhaustive_nearest_polynomial,
    monomial_table_bits,
    monomials_up_to,
    product_remainder_experiment,
    symmetric_projection_distance,
)
from boolrg.families import (
    majority,
    mod_p,
    parity,
    planted_near_polynomial,
    random_polynomial,
    random_table,
)
from boolrg.rg import annihilation_depth, sample_orders
from boolrg.symmetric import to_truth_table
from boolrg.truth_table import Anf, TruthTable, anf_to_table, table_to_anf


def brute_nearest(t, xi):
    """Oracle: distance to every degree-<= xi polynomial by direct
    enumeration of coefficient subsets."""
    monos = monomials_up_to(t.n, xi)
    best = None
    for keep in itertools.product((0, 1), repeat=len(monos)):
        poly = anf_to_table(
            Anf(t.n, frozenset(m for m, k in zip(monos, keep) if k))
        )
        dist = (poly ^ t).weight()
        if best is None or dist < best:
            best = dist
    return Fraction(best, t.size)


def test_detection_bound_values():
    assert detection_bound(4, 1) == pytest.approx(0.25)
    assert detection_bound(12, 3) == pytest.approx(12.0**-3)
    assert detection_bound(16, 2, c=2.0, alpha=0.5) == pytest.approx(2 * 16**-1.0)
    with pytest.raises(ValueError):
        detection_bound(1, 2)


def test_monomial_tables():
    assert monomial_table_bits(2, frozenset()) == 0b1111
    assert monomial_table_bits(2, frozenset({1, 2})) == 0b1000
    assert len(monomials_up_to(10, 2)) == 1 + 10 + 45


def test_exhaustive_recovers_exact_member():
    a = random_polynomial(5, 2, 0.5, seed=3)
    rep = exhaustive_nearest_polynomial(anf_to_table(a), 2)
    assert rep.remainder_density == 0
    assert rep.witness == a
    assert rep.method == "EXHAUSTIVE"


def test_exhaustive_recovers_one_flip_plant():
    base = Anf(4, frozenset({frozenset({1}), frozenset({3})}))
    t = anf_to_table(base)
    flipped = TruthTable(4, t.bits ^ (1 << 11))
    rep = exhaustive_nearest_polynomial(flipped, 1)
    assert rep.witness == base
    assert rep.remainder_density == Fraction(1, 16)
    assert rep.meets_bound  # 1/16 <= bound(4, 1) = 1/4


def test_exhaustive_matches_brute_oracle():
    rnd = random.Random(15)
    for _ in range(10):
        t = TruthTable(4, rnd.getrandbits(16))
        rep = exhaustive_nearest_polynomial(t, 1)
        assert rep.remainder_density == brute_nearest(t, 1)


def test_exhaustive_tie_break_is_lexicographic():
    # distance from constant-0 to {0, x1, x2, ...} ties at weight(t)=8 for
    # a balanced table orthogonal to everything; use an explicit tie case:
    # t = x1 has distance 8 to both 0 and x2 at xi=1 on n=4? No: d(x1, 0)=8,
    # d(x1, x2)=8, d(x1, x1)=0 wins.  Force ties with t at distance 8 from
    # every affine function: a bent-like table.
    t = TruthTable.from_outputs(
        [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0]
    )
    rep = exhaustive_nearest_polynomial(t, 1)
    tied = [
        m
        for m in range(1 << 5)
        if (
            anf_to_table(
                Anf(
                    4,
                    frozenset(
                        mono
                        for j, mono in enumerate(monomials_up_to(4, 1))
                        if m >> j & 1
                    ),
                )
            )
            ^ t
        ).weight()
        * 16
        == rep.remainder_density * 16 * 16
    ]
    keys = []
    for m in tied:
        monos = [
            mono for j, mono in enumerate(monomials_up_to(4, 1)) if m >> j & 1
        ]
        keys.append(sorted(tuple(sorted(mm)) for mm in monos))
    assert rep.witness.sorted_terms() == min(keys)


def test_exhaustive_capacity_error():
    with pytest.raises(CapacityError) as err:
        exhaustive_nearest_polynomial(random_table(20, 0.5, 1), 3)
    assert err.value.log2_candidates == 1 + 20 + 190 + 1140
    assert str(err.value.log2_candidates) in str(err.value)


def test_exhaustive_at_n18_reports_in_under_a_second():
    # 2**19 candidates over 2**18 outputs: one transform of 2**18 entries
    t = random_table(18, 0.5, 1)
    start = time.perf_counter()
    rep = exhaustive_nearest_polynomial(t, 1)
    assert time.perf_counter() - start < 1.0
    assert rep.remainder_density == (t ^ anf_to_table(rep.witness)).density()
    assert rep.remainder_density <= anf_truncation(t, 1).remainder_density


def inner_product(n):
    """x1 x2 + x3 x4 + ...: bent at even n, input n unused at odd n."""
    return anf_to_table(
        Anf(n, frozenset(frozenset({i, i + 1}) for i in range(1, n, 2)))
    )


def test_exhaustive_matches_gray_walk_oracle():
    # every (n, xi) with at most 2**16 candidates; inner products and
    # parity (balanced: both constants tie at xi = 0) exercise the ties
    rnd = random.Random(71)
    for n in range(2, 16):
        for xi in range(n + 1):
            if len(monomials_up_to(n, xi)) > 16:
                break
            tables = [
                TruthTable(n, rnd.getrandbits(1 << n)),
                anf_to_table(random_polynomial(n, 1, 0.5, n)),
                planted_near_polynomial(n, xi, 0.05, n + xi).table,
                inner_product(n),
                ~inner_product(n),
                parity(n),
            ]
            for t in tables:
                rep = exhaustive_nearest_polynomial(t, xi)
                witness, dist = gray_walk_nearest(t, xi)
                assert (rep.witness, rep.remainder_density) == (witness, dist), (
                    n, xi, t.bits
                )
                assert rep.meets_bound == (float(dist) <= detection_bound(n, xi))


def test_exhaustive_bent_ties_every_mask():
    # |W[a]| = 2**(n/2) for every a, so all 2**n linear parts tie
    for t in (inner_product(8), ~inner_product(8), inner_product(8) ^ parity(8)):
        rep = exhaustive_nearest_polynomial(t, 1)
        assert (rep.witness, rep.remainder_density) == gray_walk_nearest(t, 1)
    t = inner_product(16)
    start = time.perf_counter()
    rep = exhaustive_nearest_polynomial(t, 1)
    assert time.perf_counter() - start < 1.0
    assert rep.remainder_density == Fraction(2**15 - 2**7, 2**16)
    assert rep.witness == Anf(16, frozenset())  # the empty list sorts first


def test_detectors_check_arity_before_any_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("work done before the arity check")

    for name in ("walsh_hadamard", "mobius", "monomials_up_to"):
        monkeypatch.setattr(detector, name, boom)
    for name in ("sample_orders", "decimate_seq"):
        monkeypatch.setattr(rg, name, boom)
    for n in (0, 1):
        t = TruthTable.constant(n, 1)
        for probe in (
            exhaustive_nearest_polynomial,
            anf_truncation,
            derivative_sieve,
        ):
            with pytest.raises(ValueError, match="arity >= 2"):
                probe(t, 0)


def test_exhaustive_never_worse_than_truncation():
    rnd = random.Random(44)
    for _ in range(25):
        t = TruthTable(4, rnd.getrandbits(16))
        ex = exhaustive_nearest_polynomial(t, 1)
        tr = anf_truncation(t, 1)
        assert ex.remainder_density <= tr.remainder_density


def test_plant_recovery_within_unique_decoding_radius():
    # one flipped output is far below half the minimum distance (2^{n-1}=8)
    monos = monomials_up_to(4, 1)
    for seed in range(50):
        rnd = random.Random(seed)
        terms = frozenset(m for m in monos if rnd.getrandbits(1))
        base = Anf(4, terms)
        t = anf_to_table(base)
        flipped = TruthTable(4, t.bits ^ (1 << rnd.randrange(16)))
        rep = exhaustive_nearest_polynomial(flipped, 1)
        assert rep.witness == base
        assert rep.remainder_density == Fraction(1, 16)


def test_nonlinearity_distribution_at_n4_is_the_disjoint_ball_count():
    # The 32 radius-3 Hamming balls around affine functions are disjoint
    # (minimum distance 8), so exactly 32 * sum_{i<=3} C(16,i) = 22304 of
    # the 65536 functions lie within distance 3 of some affine function.
    affine = [
        anf_to_table(
            Anf(
                4,
                frozenset(
                    mono
                    for j, mono in enumerate(monomials_up_to(4, 1))
                    if m >> j & 1
                ),
            )
        ).bits
        for m in range(32)
    ]
    near = sum(
        1
        for bits in range(1 << 16)
        if min((bits ^ a).bit_count() for a in affine) <= 3
    )
    assert near == 32 * sum(math.comb(16, i) for i in range(4))
    # distance >= 4 (remainder >= 1/4) therefore holds for exactly
    # 43232/65536 = 65.97% of all 4-input functions
    assert (1 << 16) - near == 43232


def test_truncation_examples():
    a = random_polynomial(8, 2, 0.4, seed=9)
    rep = anf_truncation(anf_to_table(a), 2)
    assert rep.remainder_density == 0
    assert rep.method == "ANF_TRUNCATION"

    # parity is degree 1, so any xi >= 1 truncation is lossless
    rep = anf_truncation(parity(6), 5)
    assert rep.remainder_density == 0
    # a function carrying the full monomial loses exactly that term at
    # xi = n-1: remainder density 2^-n
    top = Anf(6, frozenset({frozenset(range(1, 7)), frozenset({2})}))
    rep = anf_truncation(anf_to_table(top), 5)
    assert rep.witness.terms == frozenset({frozenset({2})})
    assert rep.remainder_density == Fraction(1, 64)

    # Sparse plants make truncation unreliable: whenever the noise mask
    # touches the low end of the subset lattice, the discarded high-degree
    # shadow is dense and the remainder blows up to ~1/2; otherwise the
    # plant is recovered exactly.  Both branches occur at a healthy rate,
    # which is what motivates the sieve.
    blowups = 0
    for seed in range(30):
        plant = planted_near_polynomial(10, 2, 2**-7, seed=seed)
        noise_density = plant.noise.density()
        rep = anf_truncation(plant.table, 2)
        if rep.remainder_density == noise_density:
            continue
        assert rep.remainder_density > 10 * noise_density
        blowups += 1
    assert 3 <= blowups <= 27


def test_truncation_matches_term_filter_oracle():
    rnd = random.Random(47)
    for n in range(2, 14):
        tables = [
            TruthTable(n, rnd.getrandbits(1 << n)),
            random_table(n, 0.1, n),
            anf_to_table(random_polynomial(n, min(n, 3), 0.3, n)),
            planted_near_polynomial(n, 2, 0.05, n).table,
            parity(n),
            majority(n),
            TruthTable.constant(n, 1),
        ]
        for t in tables:
            for xi in range(n + 1):
                rep = anf_truncation(t, xi)
                assert (rep.witness, rep.remainder_density) == term_filter_truncation(
                    t, xi
                ), (n, t.bits, xi)


def test_sieve_on_exact_polynomial_is_zero():
    a = random_polynomial(9, 3, 0.4, seed=2)
    rep = derivative_sieve(anf_to_table(a), 3)
    assert rep.remainder_density == 0
    assert rep.witness is None
    assert rep.method == "DERIVATIVE_SIEVE"


def test_sieve_estimates_planted_noise():
    plant = planted_near_polynomial(12, 2, 2**-9, seed=8)
    true_density = plant.noise.density()
    rep = derivative_sieve(plant.table, 2)
    assert true_density / 4 <= rep.remainder_density <= true_density
    assert rep.meets_bound


def test_sieve_rejects_generic():
    rep = derivative_sieve(random_table(12, 0.5, seed=4), 3)
    survived = rep.remainder_density * 16
    assert abs(float(survived) - 0.5) < 0.2
    assert float(rep.remainder_density) > detection_bound(12, 3)
    assert not rep.meets_bound


def test_sieve_soundness_matches_annihilation():
    orders = sample_orders(10, 12, 4, seed=5)
    for seed in range(6):
        a = random_polynomial(10, 3, 0.35, seed=seed)
        t = anf_to_table(a)
        rep = derivative_sieve(t, 3, orders=orders)
        depth = annihilation_depth(t, orders=orders, cap=4)
        assert (rep.remainder_density == 0) == (depth is not None and depth <= 4)
    t = random_table(10, 0.5, seed=3)
    rep = derivative_sieve(t, 3, orders=orders)
    assert rep.remainder_density > 0
    assert annihilation_depth(t, orders=orders, cap=4) is None


def test_sieve_validation():
    with pytest.raises(ValueError):
        derivative_sieve(random_table(4, 0.5, 1), 4)
    with pytest.raises(ValueError):
        derivative_sieve(random_table(6, 0.5, 1), 2, orders=[(1, 2)])


def test_degree_density_profile_single_monomial():
    for m in (1, 2, 3):
        a = Anf(8, frozenset({frozenset(range(1, m + 1))}))
        profile = degree_density_profile(anf_to_table(a))
        for eta, rho in enumerate(profile):
            assert rho == (Fraction(1, 2**m) if eta == m else 0)


def test_degree_density_profile_parity():
    profile = degree_density_profile(parity(9))
    assert profile[1] == Fraction(1, 2)
    assert all(profile[eta] == 0 for eta in range(10) if eta != 1)


def test_degree_density_profile_disjoint_monomials_union_bound():
    # k disjoint degree-eta monomials are nonzero on at most k * 2^-eta
    eta, k = 3, 4
    terms = frozenset(
        frozenset(range(1 + j * eta, 1 + (j + 1) * eta)) for j in range(k)
    )
    t = anf_to_table(Anf(12, terms))
    profile = degree_density_profile(t)
    assert 0 < profile[eta] <= Fraction(k, 2**eta)
    assert profile[eta] == t.density()


def test_degree_density_profile_parts_rebuild_table():
    rnd = random.Random(50)
    t = TruthTable(8, rnd.getrandbits(256))
    profile = degree_density_profile(t)
    coeff_anf = table_to_anf(t)
    rebuilt = TruthTable.constant(8, 0)
    for eta in range(9):
        part = Anf(
            8, frozenset(term for term in coeff_anf.terms if len(term) == eta)
        )
        part_table = anf_to_table(part)
        assert part_table.density() == profile[eta]
        rebuilt ^= part_table
    assert rebuilt == t


def small_corpus():
    rnd = random.Random(61)
    for n in range(4):
        for bits in range(1 << (1 << n)):
            yield TruthTable(n, bits)
    for n in range(4, 11):
        yield TruthTable(n, rnd.getrandbits(1 << n))
        yield anf_to_table(random_polynomial(n, 3, 0.3, n))
        yield majority(n)
        yield mod_p(n, 3)
        yield parity(n)


def test_degree_density_profile_matches_integer_oracle():
    for t in small_corpus():
        assert degree_density_profile(t) == int_degree_density_profile(t), t


def test_symmetric_projection_distance_matches_integer_oracle():
    for t in small_corpus():
        proj, dist = symmetric_projection_distance(t)
        assert (proj.values, dist) == int_projection_distance(t), t


def test_degree_density_profile_cap():
    with pytest.raises(ValueError):
        degree_density_profile(random_table(17, 0.5, 1))


def test_product_remainder_exact_polynomials():
    a = anf_to_table(random_polynomial(8, 2, 0.4, seed=1))
    rep = product_remainder_experiment(a, a, 4)
    assert rep.remainder_a == 0
    assert rep.remainder_b == 0
    assert rep.remainder_product == 0
    assert rep.inequalities_hold


def test_product_remainder_cross_terms_bounded():
    for seed in range(4):
        a = planted_near_polynomial(10, 2, 2**-6, seed=seed).table
        b = planted_near_polynomial(10, 2, 2**-6, seed=seed + 100).table
        rep = product_remainder_experiment(a, b, 2)
        assert rep.cross_pa_rb <= rep.remainder_b
        assert rep.cross_ra_pb <= rep.remainder_a
        assert rep.terms_product <= rep.term_bound
        assert rep.inequalities_hold


def test_product_remainder_constant_one_factor():
    one = TruthTable.constant(10, 1)
    b = planted_near_polynomial(10, 2, 2**-6, seed=3).table
    rep = product_remainder_experiment(one, b, 2)
    assert rep.remainder_a == 0
    assert rep.remainder_product == rep.remainder_b
    assert rep.cross_pa_rb == rep.remainder_b


def test_product_remainder_validation():
    with pytest.raises(ValueError):
        product_remainder_experiment(parity(4), parity(5), 2)
    big = random_table(16, 0.5, 1)
    with pytest.raises(ValueError):
        product_remainder_experiment(big, big, 2)


def test_symmetric_projection_distance():
    for t in (majority(8), mod_p(9, 3), parity(7)):
        proj, dist = symmetric_projection_distance(t)
        assert dist == 0
        assert to_truth_table(proj) == t

    t = random_table(6, 0.5, seed=12)
    proj, dist = symmetric_projection_distance(t)
    assert dist > 0
    # oracle: per-class disagreement count for the majority vote
    expected = 0
    for s in range(7):
        members = [k for k in range(64) if bin(k).count("1") == s]
        ones = sum((t.bits >> k) & 1 for k in members)
        expected += min(ones, len(members) - ones)
    assert dist == Fraction(expected, 64)
    # per-class majority vote is optimal, so no symmetric function is closer
    for s in range(7):
        members = [k for k in range(64) if bin(k).count("1") == s]
        ones = sum((t.bits >> k) & 1 for k in members)
        flips_if_0, flips_if_1 = ones, len(members) - ones
        vote = proj.values[s]
        assert (flips_if_1 if vote else flips_if_0) == min(flips_if_0, flips_if_1)


def test_report_witness_consistency():
    # whenever a witness exists: degree within budget, and the remainder
    # density is exactly the density of t XOR the witness table
    rnd = random.Random(3)
    for _ in range(10):
        t = TruthTable(6, rnd.getrandbits(64))
        for rep in (exhaustive_nearest_polynomial(t, 1), anf_truncation(t, 3)):
            assert rep.witness is not None
            assert rep.witness.degree <= rep.xi
            assert (t ^ anf_to_table(rep.witness)).density() == rep.remainder_density


def test_decomposition_json_round_trip():
    plant = planted_near_polynomial(8, 1, 2**-8, seed=2)
    rep = exhaustive_nearest_polynomial(plant.table, 1)
    text = decomposition_to_json(rep)
    parsed = decomposition_from_json(text, n=8)
    assert parsed == rep

    sieve = derivative_sieve(plant.table, 1)
    parsed = decomposition_from_json(decomposition_to_json(sieve))
    assert parsed.witness is None
    assert parsed.remainder_density == sieve.remainder_density
    assert parsed.meets_bound == sieve.meets_bound
