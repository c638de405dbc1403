"""Counting bounds: how many functions are near some low-degree polynomial.

Everything is kept in the log2 domain.  Exact big-integer binomials are
used where feasible; otherwise mpmath's loggamma at 60 significant digits,
which stays accurate even when the quantities (2**1024 and up) overflow
ordinary floats.  Asymptotic surrogates are computed for display next to
the exact values but never substituted into a conclusion.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import mpmath as mp

_EXACT_COMB_MAX_N = 4096
_WORKING_DPS = 60


def log2_of_int(x: int) -> float:
    """log2 of a positive integer, safe beyond float range."""
    if x <= 0:
        raise ValueError("need a positive integer")
    bl = x.bit_length()
    if bl <= 512:
        return math.log2(x)
    shift = bl - 512
    return math.log2(x >> shift) + shift


def log2_comb(n, k) -> float | mp.mpf:
    """log2 of the binomial coefficient; exact for n <= 4096, loggamma above.

    Non-integer arguments (from fractional perturbation budgets) go through
    the continuous loggamma form.
    """
    if k < 0 or k > n:
        raise ValueError(f"k={k} outside 0..{n}")
    if isinstance(n, int) and isinstance(k, int) and n <= _EXACT_COMB_MAX_N:
        return log2_of_int(math.comb(n, k))
    import mpmath as mp  # deferred so that importing the package skips it
    with mp.workdps(_WORKING_DPS):
        n_, k_ = mp.mpf(n), mp.mpf(k)
        val = (
            mp.loggamma(n_ + 1) - mp.loggamma(k_ + 1) - mp.loggamma(n_ - k_ + 1)
        ) / mp.log(2)
    return val


def log2_num_functions(n: int) -> int:
    """log2 of the number of Boolean functions of n inputs: exactly 2**n."""
    if n < 0:
        raise ValueError("arity must be nonnegative")
    return 1 << n


class PolyCount(NamedTuple):
    """log2 of the number of degree-<= xi polynomials: the exact monomial
    count, plus the e*(n/xi)**xi large-n surrogate (None when undefined)."""

    log2_exact: int
    log2_asymptotic: float | None


def log2_num_polynomials(n: int, xi: int) -> PolyCount:
    if not 0 <= xi <= n:
        raise ValueError(f"degree bound {xi} outside 0..{n}")
    exact = sum(math.comb(n, j) for j in range(xi + 1))
    asymptotic = None
    if xi >= 1:
        import mpmath as mp
        with mp.workdps(_WORKING_DPS):
            asymptotic = float(mp.e * mp.power(mp.mpf(n) / xi, xi))
    return PolyCount(exact, asymptotic)


class PerturbationCount(NamedTuple):
    """log2 of the number of ways to flip up to phi of the 2**n outputs:
    a dominant-term upper bound, the e*(omega/s)**s surrogate, and the
    budget phi that was used."""

    log2_bound: mp.mpf
    log2_asymptotic: mp.mpf
    phi: mp.mpf


def log2_perturbation_count(
    n: int, xi: int, c: float = 1.0, alpha: float = 1.0
) -> PerturbationCount:
    """Count output-flip sets of size up to phi = c * 2**(n - alpha*xi/log2(n)).

    Exact summation when the cube is small; otherwise the dominant-term
    bound log2 C(omega, phi) + log2 phi, or simply omega once phi exceeds
    half the cube (the sum is then within one bit of 2**omega).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if xi < 0 or c <= 0 or alpha <= 0:
        raise ValueError("invalid bound parameters")
    import mpmath as mp
    with mp.workdps(_WORKING_DPS):
        omega = mp.power(2, n)
        log2_phi = mp.log(c, 2) + n - alpha * xi / mp.log(n, 2)
        phi = mp.power(2, log2_phi)
        if phi > omega:
            raise ValueError(f"perturbation budget {phi} exceeds cube size {omega}")
        if phi < 1:
            phi = mp.mpf(1)
        asymptotic = mp.log(mp.e, 2) + phi * (mp.log(omega, 2) - mp.log(phi, 2))
        if n <= 14:
            omega_int = 1 << n
            total = 0
            term = 1
            for s in range(1, int(phi) + 1):
                term = term * (omega_int - s + 1) // s
                total += term
            bound = mp.mpf(log2_of_int(total)) if total else mp.mpf("-inf")
        elif 2 * phi >= omega:
            bound = mp.mpf(omega)  # whole-powerset bound, tight to one bit here
        else:
            bound = log2_comb(omega, phi) + mp.log(phi, 2)
    return PerturbationCount(bound, asymptotic, phi)


def separation_margin(n: int, xi: int, c: float = 1.0, alpha: float = 1.0) -> mp.mpf:
    """log2(perturbations) + log2(polynomials) - 2**n.

    Negative certifies that functions within the flip budget of a
    degree-<= xi polynomial are a vanishing minority at these parameters.
    The polynomial count enters exactly; surrogates are display-only.
    """
    import mpmath as mp
    pert = log2_perturbation_count(n, xi, c, alpha)
    exact_m = log2_num_polynomials(n, xi).log2_exact
    with mp.workdps(_WORKING_DPS):
        return pert.log2_bound + mp.mpf(exact_m) - mp.power(2, n)


class AdjustmentEstimate(NamedTuple):
    exponent: float
    exceeds: bool


def naive_adjustment_estimate(n: int, m: int) -> AdjustmentEstimate:
    """Cost exponent n - m + 1 + m*log2(n/m) of zeroing every length-m
    derivative of a typical function one decimation choice at a time, and
    whether it exceeds the 2**n cost of just rewriting the function."""
    if not 1 <= m <= n:
        raise ValueError(f"m={m} outside 1..{n}")
    exponent = n - m + 1 + m * math.log2(n / m)
    return AdjustmentEstimate(exponent, exponent > n)
