"""Finding the low-degree polynomial hiding inside a function, desk scale.

The question each operation answers: how few outputs of ``t`` must change
before it becomes a polynomial of degree at most xi?  The full perturbation
search is superexponential, so three honestly-labeled surrogates are
shipped: exact search under a hard candidate cap, cheap truncation of the
polynomial form, and a screening sieve that reads the surviving density
after xi+1 decimations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import rg
from .symmetric import SymmetricFunction, class_weights
from .truth_table import (
    Anf,
    TruthTable,
    anf_to_table,
    coefficients_to_anf,
    mobius,
    popcount_index_array,
    var_mask,
    walsh_hadamard,
)

# Exact search covers 2**K candidate polynomials, K = number of monomials of
# degree <= xi, in n * 2**(K - 1) additions over 2**(K + 1) bytes of int32
# Walsh–Hadamard rows, so capping K caps the work.
EXHAUSTIVE_K_CAP = 24


class CapacityError(ValueError):
    """Exact search would need more candidates than the cap allows."""

    def __init__(self, message: str, log2_candidates: int):
        super().__init__(message)
        self.log2_candidates = log2_candidates


def detection_bound(n: int, xi: int, c: float = 1.0, alpha: float = 1.0) -> float:
    """Largest remainder density still counted as near-polynomial.

    The threshold c * n**(-alpha * xi) shrinks polynomially in the arity
    with exponent alpha*xi, so a fixed sparse remainder passes while the
    ~1/2 residue of a generic function fails by orders of magnitude.
    """
    if n < 2:
        raise ValueError("bound needs arity >= 2")
    if not 0 <= xi <= n:
        raise ValueError(f"degree bound {xi} outside 0..{n}")
    return c * 2.0 ** (-alpha * xi * math.log2(n))


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of one proximity probe: the degree budget, how it was
    searched, the witness polynomial when one exists, and the exact density
    of what the witness leaves unexplained."""

    xi: int
    method: str  # EXHAUSTIVE | ANF_TRUNCATION | DERIVATIVE_SIEVE
    witness: Anf | None
    remainder_density: Fraction
    bound_c: float
    bound_alpha: float
    meets_bound: bool


def decomposition_to_obj(rep: DecompositionReport) -> dict:
    return {
        "xi": rep.xi,
        "method": rep.method,
        "witness_monomials": (
            [list(t) for t in rep.witness.sorted_terms()] if rep.witness else None
        ),
        "remainder_num": rep.remainder_density.numerator,
        "remainder_den": rep.remainder_density.denominator,
        "C": rep.bound_c,
        "alpha": rep.bound_alpha,
        "meets_bound": rep.meets_bound,
    }


def decomposition_to_json(rep: DecompositionReport) -> str:
    return json.dumps(decomposition_to_obj(rep), indent=2)


def decomposition_from_obj(obj: dict, n: int | None = None) -> DecompositionReport:
    witness = None
    if obj["witness_monomials"] is not None:
        terms = frozenset(frozenset(t) for t in obj["witness_monomials"])
        arity = n if n is not None else max((max(t, default=0) for t in terms), default=0)
        witness = Anf(arity, terms)
    return DecompositionReport(
        xi=obj["xi"],
        method=obj["method"],
        witness=witness,
        remainder_density=Fraction(obj["remainder_num"], obj["remainder_den"]),
        bound_c=obj["C"],
        bound_alpha=obj["alpha"],
        meets_bound=obj["meets_bound"],
    )


def decomposition_from_json(text: str, n: int | None = None) -> DecompositionReport:
    return decomposition_from_obj(json.loads(text), n)


def monomials_up_to(n: int, xi: int) -> list[frozenset[int]]:
    """All monomials of degree <= xi, sorted by degree then lexicographically."""
    if not 0 <= xi <= n:
        raise ValueError(f"degree bound {xi} outside 0..{n}")
    return [
        frozenset(combo)
        for size in range(xi + 1)
        for combo in itertools.combinations(range(1, n + 1), size)
    ]


def monomial_table_bits(n: int, mono: frozenset[int]) -> int:
    """Packed table of the product of the monomial's inputs."""
    bits = (1 << (1 << n)) - 1
    for v in mono:
        bits &= var_mask(v, n)
    return bits


def exhaustive_nearest_polynomial(
    t: TruthTable, xi: int, c: float = 1.0, alpha: float = 1.0
) -> DecompositionReport:
    """Nearest polynomial of degree <= xi over all 2**K candidates.

    For each choice of the degree-2..xi part, one Walsh–Hadamard transform
    W of ``t`` XOR that part scores every affine completion a.x + b at
    distance (2**n -+ W[a]) / 2: maximum-likelihood decoding of RM(1, n),
    MacWilliams & Sloane ch. 14.  Ties go to the lexicographically smallest
    sorted monomial list.  Raises CapacityError beyond 2**24 candidates.
    """
    bound = detection_bound(t.n, xi, c, alpha)
    monos = monomials_up_to(t.n, xi)
    k = len(monos)
    if k > EXHAUSTIVE_K_CAP:
        raise CapacityError(
            f"2**{k} candidate polynomials exceed the 2**{EXHAUSTIVE_K_CAP} "
            "candidate cap",
            log2_candidates=k,
        )
    # row h is t XOR the degree-2..xi terms in h, as int32 ±1 (never uint8)
    high = monos[t.n + 1 :]
    rows = np.empty((1 << len(high), t.size), np.int32)
    rows[0] = np.unpackbits(t.buffer(), count=t.size, bitorder="little")
    for j, mono in enumerate(high):
        part = TruthTable(t.n, monomial_table_bits(t.n, mono)).to_outputs()
        np.bitwise_xor(rows[: 1 << j], part, out=rows[1 << j : 2 << j])
    rows *= -2
    rows += 1
    w = walsh_hadamard(rows)[:, : 1 if xi == 0 else None]
    top = int(np.abs(w).max())
    # the ties as coefficient masks (bit j: monos[j]), then as their terms'
    # ascending ranks in sorted-tuple order, padded with 0 for lexsort
    h, a, b = np.nonzero(np.stack([w == top, w == -top], axis=-1))
    masks = h << (t.n + 1) | a << 1 | b
    order = np.array(sorted(range(k), key=lambda j: sorted(monos[j])))
    ranks = np.where(masks[:, None] >> order & 1, np.arange(1, k + 1), k + 1)
    padded = np.sort(ranks, axis=1) % (k + 1)
    best = int(masks[np.lexsort(padded.T[::-1])[0]])
    witness = Anf(t.n, frozenset(monos[j] for j in range(k) if best >> j & 1))
    remainder = Fraction((t.size - top) // 2, t.size)
    return DecompositionReport(
        xi=xi,
        method="EXHAUSTIVE",
        witness=witness,
        remainder_density=remainder,
        bound_c=c,
        bound_alpha=alpha,
        meets_bound=float(remainder) <= bound,
    )


def anf_truncation(
    t: TruthTable, xi: int, c: float = 1.0, alpha: float = 1.0
) -> DecompositionReport:
    """Keep the degree-<= xi terms of the polynomial form of ``t``.

    Cheap, but not distance optimal: discarded high-degree terms can be
    dense even when a sparse perturbation of ``t`` is a low-degree
    polynomial.
    """
    bound = detection_bound(t.n, xi, c, alpha)
    buf = t.buffer()
    low_mask = np.packbits(popcount_index_array(t.n) <= xi, bitorder="little")
    low = mobius(buf, t.n) & low_mask
    witness = coefficients_to_anf(t.n, low)
    remainder = Fraction(rg.popcount(buf ^ mobius(low, t.n)), t.size)
    return DecompositionReport(
        xi=xi,
        method="ANF_TRUNCATION",
        witness=witness,
        remainder_density=remainder,
        bound_c=c,
        bound_alpha=alpha,
        meets_bound=float(remainder) <= bound,
    )


def derivative_sieve(
    t: TruthTable,
    xi: int,
    orders: Sequence[Sequence[int]] | None = None,
    c: float = 1.0,
    alpha: float = 1.0,
    seed: int = 0,
) -> DecompositionReport:
    """Screen for a sparse remainder without searching for a witness.

    After xi+1 decimations any degree-<= xi part is gone, and a remainder
    of density rho can survive on at most 2**(xi+1) * rho of the inputs; so
    the largest surviving density over the sampled orders, divided by
    2**(xi+1), is a certified lower bound on the remainder density of every
    degree-<= xi decomposition.
    """
    bound = detection_bound(t.n, xi, c, alpha)
    if xi + 1 > t.n:
        raise ValueError(f"need arity > xi; got arity {t.n}, xi {xi}")
    if orders is None:
        orders = rg.sample_orders(t.n, 8, xi + 1, seed)
    if not orders:
        raise ValueError("need at least one order")
    survived = Fraction(0)
    for order in orders:
        order = rg.check_order(t.n, order)
        if len(order) < xi + 1:
            raise ValueError(f"order {order} shorter than xi+1 = {xi + 1}")
        survived = max(survived, rg.decimate_seq(t, order[: xi + 1]).density())
    rho_hat = survived / (1 << (xi + 1))
    return DecompositionReport(
        xi=xi,
        method="DERIVATIVE_SIEVE",
        witness=None,
        remainder_density=rho_hat,
        bound_c=c,
        bound_alpha=alpha,
        meets_bound=float(rho_hat) <= bound,
    )


PROFILE_MAX_N = 16


def degree_density_profile(t: TruthTable) -> tuple[Fraction, ...]:
    """Density of the degree-exactly-eta part of ``t``, for eta = 0..n."""
    if t.n > PROFILE_MAX_N:
        raise ValueError(f"profile capped at arity {PROFILE_MAX_N}")
    coeff = mobius(t.buffer(), t.n)
    pc = popcount_index_array(t.n)
    out = []
    for eta in range(t.n + 1):
        part = mobius(coeff & np.packbits(pc == eta, bitorder="little"), t.n)
        out.append(Fraction(rg.popcount(part), t.size))
    return tuple(out)


PRODUCT_MAX_N = 14


@dataclass(frozen=True)
class ProductRemainderReport:
    """Cross-term densities of (P_a + R_a) * (P_b + R_b) at degree budget xi,
    plus the growth of the polynomial-part term count under the product."""

    xi: int
    remainder_a: Fraction
    remainder_b: Fraction
    remainder_product: Fraction
    cross_pa_rb: Fraction
    cross_ra_pb: Fraction
    cross_ra_rb: Fraction
    terms_a: int
    terms_b: int
    terms_product: int
    term_bound: int
    inequalities_hold: bool


def product_remainder_experiment(
    a: TruthTable, b: TruthTable, xi: int
) -> ProductRemainderReport:
    """Measure how remainders behave under a pointwise product.

    Each cross term involving a remainder factor is supported inside that
    factor, so its density cannot exceed the factor's; and the product of
    the two polynomial parts has at most terms_a * terms_b monomials.
    """
    if a.n != b.n:
        raise ValueError(f"arity mismatch: {a.n} vs {b.n}")
    if a.n > PRODUCT_MAX_N:
        raise ValueError(f"product experiment capped at arity {PRODUCT_MAX_N}")
    rep_a = anf_truncation(a, xi)
    rep_b = anf_truncation(b, xi)
    p_a = anf_to_table(rep_a.witness)
    p_b = anf_to_table(rep_b.witness)
    r_a = a ^ p_a
    r_b = b ^ p_b
    product = a & b
    rep_product = anf_truncation(product, xi)
    cross_pa_rb = (p_a & r_b).density()
    cross_ra_pb = (r_a & p_b).density()
    cross_ra_rb = (r_a & r_b).density()
    terms_a = len(rep_a.witness.terms)
    terms_b = len(rep_b.witness.terms)
    terms_product = rg.popcount(mobius((p_a & p_b).buffer(), a.n))
    holds = (
        cross_pa_rb <= rep_b.remainder_density
        and cross_ra_pb <= rep_a.remainder_density
        and cross_ra_rb <= min(rep_a.remainder_density, rep_b.remainder_density)
        and terms_product <= terms_a * terms_b
    )
    return ProductRemainderReport(
        xi=xi,
        remainder_a=rep_a.remainder_density,
        remainder_b=rep_b.remainder_density,
        remainder_product=rep_product.remainder_density,
        cross_pa_rb=cross_pa_rb,
        cross_ra_pb=cross_ra_pb,
        cross_ra_rb=cross_ra_rb,
        terms_a=terms_a,
        terms_b=terms_b,
        terms_product=terms_product,
        term_bound=terms_a * terms_b,
        inequalities_hold=holds,
    )


def symmetric_projection_distance(
    t: TruthTable,
) -> tuple[SymmetricFunction, Fraction]:
    """Distance to the nearest sum-dependent function (labeled heuristic).

    Majority vote within each popcount class is exactly optimal for this
    projection; it says nothing about proximity to other composite
    variables.
    """
    ones = class_weights(t)
    values = []
    flips = 0
    for s in range(t.n + 1):
        size = math.comb(t.n, s)
        if 2 * ones[s] > size:
            values.append(1)
            flips += size - ones[s]
        else:
            values.append(0)
            flips += ones[s]
    return SymmetricFunction(t.n, tuple(values)), Fraction(flips, t.size)
