import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import int_mobius

from boolrg.families import random_polynomial, random_table
from boolrg.truth_table import (
    N_MAX,
    Anf,
    BfrgArityError,
    BfrgError,
    BfrgMagicError,
    BfrgPayloadError,
    TruthTable,
    anf_to_table,
    degree,
    mobius,
    popcount_index_array,
    read_table,
    table_to_anf,
    walsh_hadamard,
    write_table,
)

AND2 = TruthTable.from_outputs([0, 0, 0, 1])
XOR2 = TruthTable.from_outputs([0, 1, 1, 0])


def random_tables(n_max, count, seed):
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(0, n_max)
        yield TruthTable(n, rnd.getrandbits(1 << n))


def brute_anf_eval(a: Anf, x) -> int:
    """Independent ANF semantics: evaluate every monomial as a product."""
    out = 0
    for term in a.terms:
        prod = 1
        for v in term:
            prod &= x[v - 1]
        out ^= prod
    return out


def test_evaluate_examples():
    assert AND2.evaluate([1, 1]) == 1
    assert AND2.evaluate([1, 0]) == 0
    zero3 = TruthTable.constant(3, 0)
    for x in itertools.product((0, 1), repeat=3):
        assert zero3.evaluate(x) == 0


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        AND2.evaluate([1, 0, 1])
    with pytest.raises(ValueError):
        AND2.evaluate([1, 2])


def test_density_examples():
    from boolrg.families import parity

    assert parity(3).density() == pytest.approx(0.5)
    assert parity(3).density().denominator == 2
    assert TruthTable.constant(5, 1).density() == 1
    assert AND2.density().numerator == 1 and AND2.density().denominator == 4


@pytest.mark.parametrize("n", [0, 1, 4, 8, 12])
def test_density_matches_enumeration(n):
    rnd = random.Random(100 + n)
    t = TruthTable(n, rnd.getrandbits(1 << n))
    counted = sum(
        t.evaluate(x) for x in itertools.product((0, 1), repeat=n)
    )
    assert t.density().numerator * t.size == counted * t.density().denominator


def test_table_to_anf_examples():
    assert table_to_anf(XOR2).terms == frozenset(
        {frozenset({1}), frozenset({2})}
    )
    assert table_to_anf(AND2).terms == frozenset({frozenset({1, 2})})
    ones = TruthTable.from_outputs([1, 1, 1, 1])
    assert table_to_anf(ones).terms == frozenset({frozenset()})


def test_anf_to_table_examples():
    assert anf_to_table(Anf(2, frozenset({frozenset({1}), frozenset({2})}))) == XOR2
    assert anf_to_table(Anf(3, frozenset())) == TruthTable.constant(3, 0)
    # constant-1 plus the full cube monomial, checked against brute force
    a = Anf(3, frozenset({frozenset(), frozenset({1, 2, 3})}))
    t = anf_to_table(a)
    for k, x in enumerate(itertools.product((0, 1), repeat=3)):
        # product order: x1 is the least significant digit of the row index
        x_by_label = tuple(reversed(x))
        idx = sum(b << j for j, b in enumerate(x_by_label))
        assert t.evaluate(x_by_label) == brute_anf_eval(a, x_by_label)
        assert t.evaluate(x_by_label) == 1 ^ (idx == 7)


def test_anf_degree_convention():
    assert Anf(4, frozenset()).degree == 0
    assert Anf(4, frozenset({frozenset()})).degree == 0
    assert Anf(4, frozenset({frozenset({1, 3, 4})})).degree == 3


def test_anf_rejects_bad_labels():
    with pytest.raises(ValueError):
        Anf(2, frozenset({frozenset({3})}))


def term_loop_anf(t: TruthTable) -> Anf:
    """Lowest-set-bit term extraction that table_to_anf used to run."""
    coeff = int.from_bytes(mobius(t.buffer(), t.n), "little")
    terms = []
    while coeff:
        k = coeff & -coeff
        idx = k.bit_length() - 1
        terms.append(frozenset(j + 1 for j in range(t.n) if idx >> j & 1))
        coeff ^= k
    return Anf(t.n, frozenset(terms))


def test_table_to_anf_matches_term_loop():
    for t in random_tables(10, 60, seed=21):
        assert table_to_anf(t) == term_loop_anf(t)
    for n in range(11):
        for value in (0, 1):
            t = TruthTable.constant(n, value)
            assert table_to_anf(t) == term_loop_anf(t)


def test_mobius_matches_integer_oracle():
    for n in range(5):
        for bits in range(1 << (1 << n)):
            out = mobius(TruthTable(n, bits).buffer(), n)
            assert int.from_bytes(out, "little") == int_mobius(bits, n), (n, bits)
    rnd = random.Random(24)
    for n in list(range(5, 21)) + [24]:
        t = TruthTable(n, rnd.getrandbits(1 << n))
        buf = t.buffer()
        out = mobius(buf, n)
        assert int.from_bytes(out, "little") == int_mobius(t.bits, n), n
        assert TruthTable.from_buffer(n, buf) == t  # the input is not written


def test_walsh_hadamard_matches_correlation_sums():
    # entry a of a ±1 row of f is sum_x (-1)**(f(x) + popcount(x & a)),
    # summed in Python integers over every x, for several rows at once
    rnd = random.Random(29)
    for n in range(11):
        tables = [TruthTable(n, rnd.getrandbits(1 << n)) for _ in range(3)]
        signs = [[1 - 2 * b for b in t.to_outputs()] for t in tables]
        rows = np.array(signs, np.int32).reshape(3, 1 << n)
        assert walsh_hadamard(rows) is rows
        for row, sign in zip(rows.tolist(), signs):
            assert row == [
                sum(s * (-1) ** (x & a).bit_count() for x, s in enumerate(sign))
                for a in range(1 << n)
            ], n


def test_buffer_codec_round_trip():
    for t in list(random_tables(12, 40, seed=5)) + [TruthTable.constant(3, 1)]:
        buf = t.buffer()
        assert len(buf) == (t.size + 7) // 8
        assert TruthTable.from_buffer(t.n, buf) == t
        assert not buf.flags.writeable
        with pytest.raises(ValueError):
            buf[0] = 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_mobius_involution(n, rnd):
    t = TruthTable(n, rnd.getrandbits(1 << n))
    assert anf_to_table(table_to_anf(t)) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=40))
))
def test_anf_round_trip(case):
    n, indices = case
    a = Anf(n, frozenset(
        frozenset(j + 1 for j in range(n) if idx >> j & 1) for idx in indices
    ))
    assert table_to_anf(anf_to_table(a)) == a


def test_degree_matches_anf_degree():
    for n in range(4):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert degree(t) == table_to_anf(t).degree, t
    for n in range(4, 17):
        tables = [random_table(n, p0, n) for p0 in (0.5, 0.01)]
        tables += [
            anf_to_table(random_polynomial(n, xi, 0.3, n))
            for xi in sorted({0, 1, 3, n // 2, n - 1, n})
        ]
        tables += [TruthTable.constant(n, 1), TruthTable(n, 1 << ((1 << n) - 1))]
        for t in tables:
            assert degree(t) == table_to_anf(t).degree, (n, t.bits)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, N_MAX - 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=20))
))
def test_degree_round_trip(case):
    n, indices = case
    a = Anf(n, frozenset(
        frozenset(j + 1 for j in range(n) if idx >> j & 1) for idx in indices
    ))
    assert degree(anf_to_table(a)) == a.degree


def test_popcount_index_array():
    for n in range(11):
        assert popcount_index_array(n).tolist() == [k.bit_count() for k in range(1 << n)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_anf_semantics_match_table(n, rnd):
    t = TruthTable(n, rnd.getrandbits(1 << n))
    a = table_to_anf(t)
    for x in itertools.product((0, 1), repeat=n):
        assert brute_anf_eval(a, x) == t.evaluate(x)


def test_function_value_expansion_reproduces_evaluate():
    # The expansion over stored outputs: f(x) = XOR_k A_k * prod_j factor_j,
    # with factor_j = x_j when digit j of k is 1, else (1 XOR x_j).
    rnd = random.Random(42)
    for _ in range(20):
        n = rnd.randint(0, 8)
        t = TruthTable(n, rnd.getrandbits(1 << n))
        for x in itertools.product((0, 1), repeat=max(n, 1)):
            x = x[:n]
            acc = 0
            for k in range(t.size):
                prod = 1
                for j in range(n):
                    prod &= x[j] if (k >> j) & 1 else 1 ^ x[j]
                acc ^= ((t.bits >> k) & 1) & prod
            assert acc == t.evaluate(x)


def test_xor_and_operators():
    rnd = random.Random(7)
    for _ in range(20):
        n = rnd.randint(0, 8)
        a = TruthTable(n, rnd.getrandbits(1 << n))
        b = TruthTable(n, rnd.getrandbits(1 << n))
        assert (a ^ a) == TruthTable.constant(n, 0)
        assert (a & TruthTable.constant(n, 1)) == a
        assert (a ^ b).weight() == (a.bits ^ b.bits).bit_count()
        assert (a & b).weight() == (a.bits & b.bits).bit_count()


def test_xor_with_constant_one_complements():
    from boolrg.families import parity

    p3 = parity(3)
    comp = p3 ^ TruthTable.constant(3, 1)
    assert comp == ~p3
    assert comp.density() == p3.density()


def test_operator_arity_mismatch():
    with pytest.raises(ValueError):
        AND2 ^ TruthTable.constant(3, 0)
    with pytest.raises(ValueError):
        AND2 & TruthTable.constant(1, 1)


def test_table_validation():
    with pytest.raises(ValueError):
        TruthTable(N_MAX + 1, 0)
    with pytest.raises(ValueError):
        TruthTable(-1, 0)
    with pytest.raises(ValueError):
        TruthTable(1, 4)  # only 2 bits of storage at arity 1
    for n in (0, 1, 3, 6, N_MAX):
        assert TruthTable(n, (1 << (1 << n)) - 1).weight() == 1 << n
        with pytest.raises(ValueError):
            TruthTable(n, 1 << (1 << n))
        with pytest.raises(ValueError):
            TruthTable(n, -1)
    with pytest.raises(ValueError):
        TruthTable.from_outputs([0, 1, 0])
    with pytest.raises(ValueError):
        TruthTable.from_outputs([0, 2])


def test_bfrg_round_trip(tmp_path):
    path = tmp_path / "and2.bfrg"
    write_table(AND2, path)
    assert read_table(path) == AND2
    assert path.read_bytes() == b"BFRG 1 n=2\n\x08"
    for t in random_tables(10, 25, seed=3):
        write_table(t, path)
        assert read_table(path) == t


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_bfrg_round_trip_property(tmp_path_factory, n, rnd):
    path = tmp_path_factory.getbasetemp() / "property.bfrg"
    t = TruthTable(n, rnd.getrandbits(1 << n))
    write_table(t, path)
    payload = t.bits.to_bytes(((1 << n) + 7) // 8, "little")
    assert path.read_bytes() == f"BFRG 1 n={n}\n".encode() + payload
    assert read_table(path) == t


def test_bfrg_distinct_errors(tmp_path):
    path = tmp_path / "bad.bfrg"

    path.write_bytes(b"NOPE 1 n=2\n\x08")
    with pytest.raises(BfrgMagicError):
        read_table(path)

    path.write_bytes(b"no newline at all")
    with pytest.raises(BfrgMagicError):
        read_table(path)

    path.write_bytes(b"BFRG 1 n=abc\n\x08")
    with pytest.raises(BfrgArityError):
        read_table(path)

    path.write_bytes(b"BFRG 1 n=99\n\x08")
    with pytest.raises(BfrgArityError):
        read_table(path)

    path.write_bytes(b"BFRG 1 n=4\n\x08")  # needs 2 bytes
    with pytest.raises(BfrgPayloadError):
        read_table(path)

    path.write_bytes(b"BFRG 1 n=2\n\x08\x00")  # one byte too many
    with pytest.raises(BfrgPayloadError):
        read_table(path)

    path.write_bytes(b"BFRG 1 n=2\n\xff")  # padding bits above 2**2 set
    with pytest.raises(BfrgPayloadError):
        read_table(path)

    # all are the same family of parse errors
    for payload in (b"NOPE\n", b"BFRG 1 n=x\n", b"BFRG 1 n=4\n\x00"):
        path.write_bytes(payload)
        with pytest.raises(BfrgError):
            read_table(path)
