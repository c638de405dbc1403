"""Seeded generators for the function families the experiments run on.

All randomness comes from numpy's Philox counter-based generator keyed by
the caller's seed, so every table, polynomial, and plant reproduces
bit-exactly across runs and platforms.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from . import symmetric as sym
from .detector import monomials_up_to
from .truth_table import Anf, TruthTable, anf_to_table, var_mask


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _random_table(n: int, p: float, rng: np.random.Generator) -> TruthTable:
    # Drawn and packed in chunks so no 2**n floats are ever held at once;
    # Philox yields the same stream however the draws are split.
    chunk = min(1 << n, 1 << 16)
    packed = b"".join(
        np.packbits(rng.random(chunk) < p, bitorder="little").tobytes()
        for _ in range((1 << n) // chunk)
    )
    return TruthTable.from_buffer(n, packed)


def random_table(n: int, p0: float, seed: int) -> TruthTable:
    """Each of the 2**n outputs is 1 independently with probability p0."""
    if not 0 <= p0 <= 1:
        raise ValueError(f"probability {p0} outside [0, 1]")
    return _random_table(n, p0, _generator(seed))


def constant(n: int, value: int) -> TruthTable:
    return TruthTable.constant(n, value)


def parity(n: int) -> TruthTable:
    """1 iff an odd number of inputs are 1."""
    if n < 1:
        raise ValueError("parity needs arity >= 1")
    bits = 0b10
    for m in range(2, n + 1):
        half = 1 << (m - 1)
        bits |= (bits ^ ((1 << half) - 1)) << half
    return TruthTable(n, bits)


def parity_sym(n: int) -> sym.SymmetricFunction:
    return sym.SymmetricFunction.from_predicate(n, lambda s: s % 2 == 1)


def majority_sym(n: int) -> sym.SymmetricFunction:
    """Strict majority: 1 iff more than half the inputs are 1."""
    if n < 1:
        raise ValueError("majority needs arity >= 1")
    return sym.SymmetricFunction.from_predicate(n, lambda s: 2 * s > n)


def majority(n: int) -> TruthTable:
    return sym.to_truth_table(majority_sym(n))


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
        raise ValueError(f"{p} is not an odd prime")


def mod_p_register_steps(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Run the p-state running-remainder machine on all inputs at once.

    Register j, as a packed table over the full input cube, holds whether
    the sum of the first i inputs is congruent to j mod p.  Yields the
    register tuple after each input is consumed (exactly one register is 1
    everywhere, at every step).
    """
    _check_odd_prime(p)
    full = (1 << (1 << n)) - 1
    regs = [full] + [0] * (p - 1)
    yield tuple(regs)
    for i in range(1, n + 1):
        x = var_mask(i, n)
        not_x = full ^ x
        regs = [(regs[j] & not_x) ^ (regs[(j - 1) % p] & x) for j in range(p)]
        yield tuple(regs)


def mod_p(n: int, p: int) -> TruthTable:
    """1 iff the arithmetic sum of the inputs is divisible by the odd prime p.

    Built by the running-remainder state machine, not a popcount shortcut;
    the popcount definition is only used to cross-check it in tests.
    """
    if n < 1:
        raise ValueError("mod_p needs arity >= 1")
    for regs in mod_p_register_steps(n, p):
        pass
    return TruthTable(n, regs[0])


def mod_p_sym(n: int, p: int) -> sym.SymmetricFunction:
    _check_odd_prime(p)
    return sym.SymmetricFunction.from_predicate(n, lambda s: s % p == 0)


def _random_polynomial(
    n: int, xi: int, term_density: float, rng: np.random.Generator
) -> Anf:
    monos = monomials_up_to(n, xi)
    keep = rng.random(len(monos)) < term_density
    return Anf(n, frozenset(m for m, k in zip(monos, keep) if k))


def random_polynomial(n: int, xi: int, term_density: float, seed: int) -> Anf:
    """Each monomial of degree <= xi appears independently with the given
    probability; the result's degree is therefore at most xi."""
    if not 0 <= xi <= n:
        raise ValueError(f"degree bound {xi} outside 0..{n}")
    if not 0 <= term_density <= 1:
        raise ValueError(f"term density {term_density} outside [0, 1]")
    return _random_polynomial(n, xi, term_density, _generator(seed))


class PlantedFunction(NamedTuple):
    table: TruthTable
    polynomial: Anf
    noise: TruthTable


def planted_near_polynomial(
    n: int,
    xi: int,
    noise_fraction: float,
    seed: int,
    term_density: float = 0.5,
) -> PlantedFunction:
    """A degree-<= xi polynomial XOR a sparse Bernoulli noise mask.

    The polynomial and the mask come from independent child streams of the
    seed, and ``table == anf_to_table(polynomial) ^ noise`` always holds.
    """
    if not 0 <= noise_fraction <= 1:
        raise ValueError(f"noise fraction {noise_fraction} outside [0, 1]")
    if not 0 <= xi <= n:
        raise ValueError(f"degree bound {xi} outside 0..{n}")
    child_poly, child_noise = np.random.SeedSequence(seed).spawn(2)
    poly = _random_polynomial(
        n, xi, term_density, np.random.Generator(np.random.Philox(child_poly))
    )
    noise = _random_table(
        n, noise_fraction, np.random.Generator(np.random.Philox(child_noise))
    )
    return PlantedFunction(anf_to_table(poly) ^ noise, poly, noise)
