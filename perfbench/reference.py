"""Reference computations for the benchmark's output checks.

Nothing here imports ``boolrg``: every value the checks compare against is
computed from first principles, so a fault in the program cannot hide in
its own reference.  ``test_reference.py`` tests each function against
brute force at small arity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np


# --- Pascal rows, exact symmetric densities, Lucas jump-ahead ---------------

def binomial_row(n: int) -> list[int]:
    """[C(n, 0), ..., C(n, n)] by the multiplicative recurrence."""
    row = [1] * (n + 1)
    for s in range(n):
        row[s + 1] = row[s] * (n - s) // (s + 1)
    return row


def row_down(row: Sequence[int]) -> list[int]:
    """Row n-1 from row n, by C(n-1, s) = C(n, s) - C(n-1, s-1)."""
    out = [1] * (len(row) - 1)
    for s in range(1, len(out)):
        out[s] = row[s] - out[s - 1]
    return out


def sym_density_exact(values: Sequence[int], row: Sequence[int]) -> Fraction:
    """Density of a sum-dependent function from its Pascal row."""
    n = len(values) - 1
    if len(row) != n + 1:
        raise ValueError("row and values disagree on the arity")
    return Fraction(sum(c for c, v in zip(row, values) if v), 1 << n)


def lucas_jump(values: Sequence[int], j: int) -> list[int]:
    """Values after j decimations: v_j[s] = XOR over k subset of j of v[s+k].

    Row j of Pascal's triangle mod 2 is 1 exactly at the bitwise subsets of j
    (Lucas' theorem), so the j-fold difference needs no intermediate steps.
    """
    n = len(values) - 1
    if not 0 <= j <= n:
        raise ValueError(f"step {j} outside 0..{n}")
    subsets = [k for k in range(j + 1) if k & j == k]
    v = np.asarray(values, dtype=np.uint8)
    out = np.zeros(n - j + 1, dtype=np.uint8)
    for k in subsets:
        out ^= v[k : k + n - j + 1]
    return out.tolist()


def residue_cycle(patterns: Sequence[frozenset[int]]) -> tuple[int | None, int | None]:
    """(start, period) of the first exact repeat in a pattern sequence."""
    seen: dict[frozenset[int], int] = {}
    for idx, pattern in enumerate(patterns):
        if pattern in seen:
            return seen[pattern], idx - seen[pattern]
        seen[pattern] = idx
    return None, None


def residues(values: Sequence[int], modulus: int) -> frozenset[int]:
    return frozenset(s % modulus for s, v in enumerate(values) if v)


# --- truth tables as numpy 0/1 arrays ----------------------------------------

def bits_to_outputs(bits: int, n: int) -> np.ndarray:
    """The 2**n outputs of a packed table (bit k is the output at row k)."""
    raw = bits.to_bytes(max(((1 << n) + 7) // 8, 1), "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[: 1 << n]


def derivative(outputs: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """XOR-derivative over a set of original labels (x_1 = lowest index bit)."""
    n = int(outputs.size).bit_length() - 1
    arr = outputs.reshape((2,) * n)  # axis 0 is x_n, axis n-1 is x_1
    for v in sorted(labels, reverse=True):
        axis = n - v
        arr = np.take(arr, 0, axis=axis) ^ np.take(arr, 1, axis=axis)
        n -= 1
    return arr.reshape(-1)


def anf_terms(outputs: np.ndarray) -> list[tuple[int, ...]]:
    """Sorted monomials of the mod-2 polynomial form (subset-sum transform)."""
    n = int(outputs.size).bit_length() - 1
    return sorted(
        tuple(j + 1 for j in range(n) if int(k) >> j & 1)
        for k in np.flatnonzero(_mobius(outputs))
    )


def poly_outputs(n: int, terms) -> np.ndarray:
    """Outputs of the polynomial with the given monomials."""
    coeff = np.zeros(1 << n, dtype=np.uint8)
    for term in terms:
        coeff[sum(1 << (v - 1) for v in term)] ^= 1
    return _mobius(coeff)


def _mobius(arr: np.ndarray) -> np.ndarray:
    out = arr.astype(np.uint8)  # a copy
    h = 1
    while h < out.size:
        view = out.reshape(-1, 2, h)
        view[:, 1] ^= view[:, 0]
        h <<= 1
    return out


def symmetric_outputs(values: Sequence[int], n: int) -> np.ndarray:
    """Outputs of the sum-dependent function with the given values."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return np.asarray(values, dtype=np.uint8)[pc]


# --- nearest polynomial: Walsh-Hadamard for degree 1, brute force for n <= 6 --

def _monomials(n: int, xi: int) -> list[tuple[int, ...]]:
    return [c for d in range(xi + 1) for c in itertools.combinations(range(1, n + 1), d)]


def _monomial_outputs(n: int, mono: Sequence[int]) -> np.ndarray:
    k = np.arange(1 << n)
    out = np.ones(1 << n, dtype=np.uint8)
    for v in mono:
        out &= ((k >> (v - 1)) & 1).astype(np.uint8)
    return out


def nearest_affine(outputs: np.ndarray) -> tuple[int, list[tuple[int, ...]]]:
    """Distance to the nearest affine function and its witness.

    One fast Walsh-Hadamard transform gives the correlation with every
    linear function (MacWilliams & Sloane, ch. 14); among the affine
    functions at the minimum distance the witness is the one whose sorted
    monomial list is lexicographically smallest.
    """
    size = outputs.size
    n = size.bit_length() - 1
    w = 1 - 2 * outputs.astype(np.int64)
    h = 1
    while h < size:
        w = w.reshape(-1, 2, h)
        w = np.stack([w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]], axis=1).reshape(-1)
        h <<= 1
    # distance to <a,x> is (size - W[a]) / 2, to <a,x> + 1 is (size + W[a]) / 2
    best = (size - int(np.abs(w).max())) // 2
    keys = []
    for a in np.flatnonzero(np.abs(w) == size - 2 * best):
        lin = [(j + 1,) for j in range(n) if int(a) >> j & 1]
        if (size - int(w[a])) // 2 == best:
            keys.append(sorted(lin))
        if (size + int(w[a])) // 2 == best:
            keys.append(sorted([()] + lin))
    return best, min(keys)


_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64, by byte lookup (numpy < 2 has no bitwise_count)."""
    return _POPCOUNT8[words.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int64)


def brute_nearest(outputs: np.ndarray, xi: int) -> tuple[int, list[tuple[int, ...]]]:
    """Nearest degree-<= xi polynomial over all 2**K candidates, n <= 6.

    Each candidate table is one uint64; candidate ``m`` is the XOR of the
    monomials whose bits are set in ``m``.  The first 16 monomials span one
    vectorised block of 2**16 tables, and the block is walked once for each
    choice of the others, so memory stays at 2**16 words.
    """
    size = outputs.size
    n = size.bit_length() - 1
    if n > 6:
        raise ValueError("brute force packs a table into one uint64: n <= 6")
    weights = [1 << k for k in range(size)]
    pack = lambda out: sum(w for w, bit in zip(weights, out.tolist()) if bit)  # noqa: E731
    monos = _monomials(n, xi)
    low, high = monos[:16], [pack(_monomial_outputs(n, m)) for m in monos[16:]]
    block = np.zeros(1, dtype=np.uint64)
    for mono in low:
        block = np.concatenate([block, block ^ np.uint64(pack(_monomial_outputs(n, mono)))])
    target = pack(outputs)
    best, masks = size + 1, []
    for h in range(1 << len(high)):
        base = target
        for j, table in enumerate(high):
            if h >> j & 1:
                base ^= table
        dist = _popcount(block ^ np.uint64(base))
        d = int(dist.min())
        if d < best:
            best, masks = d, []
        if d == best:
            masks += [h << len(low) | int(m) for m in np.flatnonzero(dist == d)]
    keys = [sorted(monos[j] for j in range(len(monos)) if m >> j & 1) for m in masks]
    return best, min(keys)


# --- iid densities -------------------------------------------------------------

def iid_density(p0: float, ell: int) -> float:
    """p_ell by iterating p -> 2p(1-p) ell times."""
    p = p0
    for _ in range(ell):
        p = 2.0 * p * (1.0 - p)
    return p


# Half-width of the binomial band, in standard deviations.  A run makes about
# 40 band checks and repeats them on every seed: at 4 sigma a correct table
# fails about one seed in 150 (4.45 sigma on seed 126, 4.30 on seed 255 of
# 0-299); at 6 sigma the chance is below 1e-7 per run.
BAND_SIGMAS = 6.0


def binomial_band(count: int, p: float) -> tuple[float, float]:
    """Weights within BAND_SIGMAS standard deviations of Binomial(count, p)."""
    half = BAND_SIGMAS * math.sqrt(count * p * (1.0 - p))
    return count * p - half, count * p + half
