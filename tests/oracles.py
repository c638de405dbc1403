"""Reference implementations that faster code in ``src/`` replaced.

The integer-mask ones work on ``TruthTable.bits`` with Python big-integer
shifts and masks, sharing nothing with the numpy kernels, so the tests
compare the two bit for bit.  :func:`term_filter_truncation` filters the
full term set of the polynomial form, as ``anf_truncation`` once did, and
:func:`gray_walk_nearest` scores every candidate polynomial one at a time,
as ``exhaustive_nearest_polynomial`` once did.
"""

from __future__ import annotations

import math
from fractions import Fraction

from boolrg.detector import monomial_table_bits, monomials_up_to
from boolrg.truth_table import Anf, TruthTable, anf_to_table, table_to_anf


def low_half_mask(j: int, n: int) -> int:
    """Positions k in [0, 2**n) whose j-th index bit is 0."""
    out = (1 << (1 << j)) - 1
    span = 1 << (j + 1)
    while span < 1 << n:
        out |= out << span
        span <<= 1
    return out


def int_mobius(bits: int, n: int) -> int:
    """Mod-2 subset-sum transform of a packed table held as an integer."""
    for j in range(n):
        bits ^= (bits & low_half_mask(j, n)) << (1 << j)
    return bits


def _class_mask(n: int, s: int) -> int:
    return sum(1 << k for k in range(1 << n) if k.bit_count() == s)


def int_degree_density_profile(t: TruthTable) -> tuple[Fraction, ...]:
    """Density of the degree-exactly-eta part of ``t``, for eta = 0..n."""
    coeff = int_mobius(t.bits, t.n)
    return tuple(
        Fraction(int_mobius(coeff & _class_mask(t.n, eta), t.n).bit_count(), t.size)
        for eta in range(t.n + 1)
    )


def int_projection_distance(t: TruthTable) -> tuple[tuple[int, ...], Fraction]:
    """Majority value per popcount class and the flips it costs."""
    values, flips = [], 0
    for s in range(t.n + 1):
        ones = (t.bits & _class_mask(t.n, s)).bit_count()
        size = math.comb(t.n, s)
        values.append(1 if 2 * ones > size else 0)
        flips += size - ones if 2 * ones > size else ones
    return tuple(values), Fraction(flips, t.size)


def term_filter_truncation(t: TruthTable, xi: int) -> tuple[Anf, Fraction]:
    """Degree-<= xi terms of the full polynomial form, and the density of
    what they leave unexplained."""
    full = table_to_anf(t)
    witness = Anf(t.n, frozenset(term for term in full.terms if len(term) <= xi))
    return witness, (t ^ anf_to_table(witness)).density()


def gray_walk_nearest(t: TruthTable, xi: int) -> tuple[Anf, Fraction]:
    """Nearest degree-<= xi polynomial and its distance density, walking all
    2**K coefficient choices in Gray-code order with one table XOR each.

    Ties go to the lexicographically smallest sorted monomial list.
    """
    monos = monomials_up_to(t.n, xi)

    def key(mask: int) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(monos[j])) for j in range(len(monos)) if mask >> j & 1)

    basis = [monomial_table_bits(t.n, m) for m in monos]
    current = mask = best_mask = 0
    best_dist = t.bits.bit_count()
    for g in range(1, 1 << len(monos)):
        j = (g & -g).bit_length() - 1
        mask ^= 1 << j
        current ^= basis[j]
        dist = (current ^ t.bits).bit_count()
        if dist < best_dist or (dist == best_dist and key(mask) < key(best_mask)):
            best_dist, best_mask = dist, mask
    witness = Anf(t.n, frozenset(monos[j] for j in range(len(monos)) if best_mask >> j & 1))
    return witness, Fraction(best_dist, t.size)
