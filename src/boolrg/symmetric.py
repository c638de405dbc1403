"""Compact engine for functions that depend only on the sum of their inputs.

A function of n inputs that only sees the arithmetic sum is stored as the
n+1 outputs indexed by that sum, so arities in the thousands stay cheap.
Decimation acts as a difference on the value vector, and densities weight
each sum by its binomial count of configurations.  A flow builds the
Pascal row C(n, .) once and carries it down one row per decimation, so
each exact density is a sum over that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .flow import FlowStep, FlowTrace
from .truth_table import N_MAX, TruthTable, array_to_bits, bits_to_array

# Up to this arity densities are exact sums over a big-integer Pascal row,
# carried down a flow; above it, compensated log-domain sums (error < 1e-12).
EXACT_DENSITY_MAX_N = 4096

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SymmetricFunction:
    """Outputs of a sum-dependent function, indexed by the input sum 0..n."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.values) != self.n + 1:
            raise ValueError(
                f"need {self.n + 1} values for arity {self.n}, got {len(self.values)}"
            )
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be 0/1")

    @classmethod
    def from_predicate(cls, n: int, pred: Callable[[int], bool]) -> "SymmetricFunction":
        return cls(n, tuple(1 if pred(s) else 0 for s in range(n + 1)))

    def is_zero(self) -> bool:
        return not any(self.values)


def sym_decimate(f: SymmetricFunction) -> SymmetricFunction:
    """Decimate one input: output changes iff f differs between sums s, s+1."""
    if f.n < 1:
        raise ValueError("cannot decimate a 0-ary function")
    v = f.values
    return SymmetricFunction(f.n - 1, tuple(v[s] ^ v[s + 1] for s in range(f.n)))


def _log2_comb(n: int, s: int) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(s + 1) - math.lgamma(n - s + 1)
    ) / _LN2


def _pascal_row(n: int) -> list[int]:
    """C(n, s) for s = 0..n, by C(n, s+1) = C(n, s)(n-s)/(s+1)."""
    row = [1]
    for s in range(n):
        row.append(row[-1] * (n - s) // (s + 1))
    return row


def _row_down(row: list[int]) -> list[int]:
    """C(m-1, .) from C(m, .), by C(m-1, s) = C(m, s) - C(m-1, s-1)."""
    down = [1]
    for c in row[1:-1]:
        down.append(c - down[-1])
    return down


def _row_density(f: SymmetricFunction, row: list[int]) -> Fraction:
    return Fraction(sum(c for c, bit in zip(row, f.values) if bit), 1 << f.n)


def sym_density(f: SymmetricFunction) -> Fraction | float:
    """Fraction of all 2**n configurations with output 1.

    Exact, summing the Pascal row C(n, .), up to EXACT_DENSITY_MAX_N; above
    that, compensated summation of log-domain weights, clamped to at most 1.
    """
    if f.n <= EXACT_DENSITY_MAX_N:
        return _row_density(f, _pascal_row(f.n))
    return min(1.0, math.fsum(
        2.0 ** (_log2_comb(f.n, s) - f.n) for s, bit in enumerate(f.values) if bit
    ))


def popcount_index_array(n: int) -> np.ndarray:
    """popcount(k) for k in [0, 2**n), as uint8."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc


def to_truth_table(f: SymmetricFunction) -> TruthTable:
    """Expand to the exhaustive table (arity capped at N_MAX)."""
    if f.n > N_MAX:
        raise ValueError(f"arity {f.n} exceeds table cap {N_MAX}")
    lookup = np.asarray(f.values, dtype=np.uint8)
    return TruthTable(f.n, array_to_bits(lookup[popcount_index_array(f.n)]))


def from_truth_table(t: TruthTable) -> SymmetricFunction:
    """Project a table that is constant on every popcount class; else raise."""
    arr = bits_to_array(t.bits, t.n)
    pc = popcount_index_array(t.n)
    ones = np.bincount(pc, weights=arr, minlength=t.n + 1).astype(np.int64)
    values = []
    for s in range(t.n + 1):
        size = math.comb(t.n, s)
        if ones[s] == 0:
            values.append(0)
        elif ones[s] == size:
            values.append(1)
        else:
            raise ValueError(f"table is not symmetric: mixed outputs at sum {s}")
    return SymmetricFunction(t.n, tuple(values))


def residue_pattern(f: SymmetricFunction, modulus: int) -> frozenset[int]:
    """Residues mod ``modulus`` of the sums with output 1."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return frozenset(s % modulus for s, bit in enumerate(f.values) if bit)


@dataclass(frozen=True)
class SymFlowResult:
    """Trace of repeated symmetric decimation, with optional residue cycling.

    ``patterns[ell]`` is the nonzero-residue set after ``ell`` steps when a
    modulus was supplied; the cycle fields give the first exact repeat of
    that pattern, if one occurred within the traced steps.
    """

    trace: FlowTrace
    patterns: tuple[frozenset[int], ...] | None
    cycle_start: int | None
    cycle_period: int | None

    def cycle_densities(self) -> list[Fraction | float]:
        """Densities over one full detected cycle (empty when no cycle)."""
        if self.cycle_start is None or self.cycle_period is None:
            return []
        densities = [self.trace.start_density] + [
            step.density for step in self.trace.steps
        ]
        return densities[self.cycle_start : self.cycle_start + self.cycle_period]


def sym_flow(
    f: SymmetricFunction, steps: int, modulus: int | None = None
) -> SymFlowResult:
    """Densities after each of ``steps`` decimations (steps <= arity)."""
    if steps > f.n:
        raise ValueError(f"steps {steps} exceeds arity {f.n}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    patterns = [residue_pattern(f, modulus)] if modulus else None
    row = _pascal_row(f.n) if f.n <= EXACT_DENSITY_MAX_N else None
    start_density = sym_density(f) if row is None else _row_density(f, row)
    flow_steps = []
    g = f
    for _ in range(steps):
        g = sym_decimate(g)
        if g.n <= EXACT_DENSITY_MAX_N:
            row = _pascal_row(g.n) if row is None else _row_down(row)
        density = sym_density(g) if row is None else _row_density(g, row)
        flow_steps.append(FlowStep(None, g.n, density))
        if patterns is not None:
            patterns.append(residue_pattern(g, modulus))
    cycle_start = cycle_period = None
    if patterns is not None:
        seen: dict[frozenset[int], int] = {}
        for idx, pattern in enumerate(patterns):
            if pattern in seen:
                cycle_start = seen[pattern]
                cycle_period = idx - seen[pattern]
                break
            seen[pattern] = idx
    trace = FlowTrace(f.n, start_density, tuple(flow_steps))
    return SymFlowResult(
        trace,
        tuple(patterns) if patterns is not None else None,
        cycle_start,
        cycle_period,
    )
