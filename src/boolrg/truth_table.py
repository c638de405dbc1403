"""Exhaustive truth tables of Boolean functions and their mod-2 polynomial form.

Bit ``k`` of a table is the output for the assignment whose j-th input is
the j-th binary digit of ``k`` (input 1 is the least significant digit).  A
:class:`TruthTable` holds all 2**n bits in one Python integer, for hashing,
equality and whole-table XOR/AND.  Transforms work on its packed buffer
(:meth:`TruthTable.buffer`, also the BFRG payload): bit k is bit k % 8 of
byte k // 8.  The Möbius butterfly here and the decimation kernel in
:mod:`boolrg.rg` both run on the :func:`digit_blocks` views of a buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

# Largest arity stored exhaustively (2**24 bits = 2 MiB per table).  Larger
# arities are served by the symmetric engine only.
N_MAX = 24


class BfrgError(ValueError):
    """Malformed BFRG table file."""


class BfrgMagicError(BfrgError):
    """Header is not a valid ``BFRG 1`` header line."""


class BfrgArityError(BfrgError):
    """Header arity is missing, not an integer, or out of range."""


class BfrgPayloadError(BfrgError):
    """Payload truncated, oversized, or with nonzero padding bits."""


def _nbytes(n: int) -> int:
    return ((1 << n) + 7) // 8


def var_mask(i: int, n: int) -> int:
    """Packed table of the projection x_i (bit k set iff digit i-1 of k is 1)."""
    b = i - 1
    out = ((1 << (1 << b)) - 1) << (1 << b)
    # the period and 2**n are powers of two, so doubling lands exactly on 2**n
    span = 1 << (b + 1)
    while span < 1 << n:
        out |= out << span
        span <<= 1
    return out


_WORDS = tuple(np.dtype(w) for w in ("u1", "u2", "u4", "u8"))
# bits of a byte whose index digit b (b < 3) is 0
_LOW_HALF_BYTE = (0x55, 0x33, 0x0F)


def digit_blocks(buf: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(digit b = 0, digit b = 1) halves of a packed buffer as views, b >= 3.

    Blocks of 2**b bits are whole words: strided word slices up to b = 6,
    then rows of 2**(b-6) uint64 words.  Writing to a view writes to ``buf``.
    """
    words = buf.view(_WORDS[min(b - 3, 3)])
    if b <= 6:
        return words[0::2], words[1::2]
    words = words.reshape(-1, 2, 1 << (b - 6))
    return words[:, 0], words[:, 1]


def mobius(buf: np.ndarray, n: int) -> np.ndarray:
    """Butterfly of the mod-2 subset-sum transform on a buffer (self-inverse).

    Maps output bits to polynomial coefficients and back: coefficient at
    index ``m`` is the XOR of outputs over all sub-assignments of ``m``.
    Returns a new buffer; ``buf`` is not written.
    """
    out = buf.copy()
    for b in range(min(n, 3)):
        out ^= (out & _LOW_HALF_BYTE[b]) << (1 << b)
    for b in range(3, n):
        lo, hi = digit_blocks(out, b)
        hi ^= lo
    return out


def walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """In-place integer Walsh–Hadamard butterfly on each row of a contiguous
    (rows, 2**n) array.  A ±1 row of f (-1 where f is 1) becomes, at index
    a, 2**n less twice the distance from f to the linear function a.x."""
    r, size = rows.shape
    for b in range(size.bit_length() - 1):
        pairs = rows.reshape(r, -1, 2, 1 << b)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
    return rows


@dataclass(frozen=True)
class TruthTable:
    """Immutable bit-packed table of all 2**n outputs of a Boolean function."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= N_MAX:
            raise ValueError(f"arity must be in [0, {N_MAX}], got {self.n}")
        if not (self.bits >= 0 and self.bits.bit_length() <= 1 << self.n):
            raise ValueError(f"bits out of range for arity {self.n}")

    @classmethod
    def from_outputs(cls, outputs: Sequence[int]) -> "TruthTable":
        """Build a table from 2**n explicit output bits, index order."""
        size = len(outputs)
        n = size.bit_length() - 1
        if size != 1 << n:
            raise ValueError(f"output count {size} is not a power of two")
        if any(b not in (0, 1) for b in outputs):
            raise ValueError("outputs must be 0/1")
        packed = np.packbits(np.array(outputs, np.uint8), bitorder="little")
        return cls.from_buffer(n, packed)

    @classmethod
    def constant(cls, n: int, value: int) -> "TruthTable":
        if value not in (0, 1):
            raise ValueError("constant value must be 0 or 1")
        return cls(n, ((1 << (1 << n)) - 1) if value else 0)

    @classmethod
    def from_buffer(cls, n: int, buf) -> "TruthTable":
        """Table of arity ``n`` from a packed buffer (see :meth:`buffer`)."""
        return cls(n, int.from_bytes(buf, "little"))

    @property
    def size(self) -> int:
        return 1 << self.n

    def buffer(self) -> np.ndarray:
        """Read-only packed buffer of the outputs, converted anew on each call."""
        return np.frombuffer(self.bits.to_bytes(_nbytes(self.n), "little"), np.uint8)

    def to_outputs(self) -> list[int]:
        return np.unpackbits(self.buffer(), count=self.size, bitorder="little").tolist()

    def evaluate(self, x: Sequence[int]) -> int:
        """Output for one assignment; x[j] is the value of input j+1."""
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(x)}")
        idx = 0
        for j, v in enumerate(x):
            if v not in (0, 1):
                raise ValueError("inputs must be 0/1")
            idx |= v << j
        return (self.bits >> idx) & 1

    def weight(self) -> int:
        """Number of assignments with output 1."""
        return self.bits.bit_count()

    def density(self) -> Fraction:
        """Exact fraction of assignments with output 1 (never a float)."""
        return Fraction(self.weight(), self.size)

    def is_zero(self) -> bool:
        return self.bits == 0

    def _check_arity(self, other: "TruthTable") -> None:
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_arity(other)
        return TruthTable(self.n, self.bits ^ other.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_arity(other)
        return TruthTable(self.n, self.bits & other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ ((1 << self.size) - 1))


@dataclass(frozen=True)
class Anf:
    """Mod-2 polynomial as a set of monomials over inputs {1..n}.

    Each monomial is a frozenset of input labels; the empty frozenset is the
    constant-1 term.  An empty term set is the zero function.
    """

    n: int
    terms: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= N_MAX:
            raise ValueError(f"arity must be in [0, {N_MAX}], got {self.n}")
        for term in self.terms:
            if not all(1 <= v <= self.n for v in term):
                raise ValueError(f"monomial {sorted(term)} outside inputs 1..{self.n}")

    @property
    def degree(self) -> int:
        """Largest monomial cardinality; 0 for constants and the zero function."""
        return max((len(t) for t in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(t)) for t in self.terms)


def popcount_index_array(n: int) -> np.ndarray:
    """popcount(k) for k in [0, 2**n), as uint8."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc


# largest index weight among the set bits of a byte; for byte 0 a value no
# byte-index weight (at most N_MAX - 3) can lift to 0
_TOP_WEIGHT = np.array([
    max((j.bit_count() for j in range(8) if v >> j & 1), default=-32)
    for v in range(256)
], np.int8)


def degree(t: TruthTable) -> int:
    """Polynomial degree of ``t`` (0 for constants and the zero function)."""
    # per byte, the byte index's weight plus the top weight of a set bit in it
    coeff = mobius(t.buffer(), t.n)
    weights = popcount_index_array(max(t.n - 3, 0)) + _TOP_WEIGHT[coeff]
    return max(int(weights.max()), 0)


def coefficients_to_anf(n: int, coeff: np.ndarray) -> Anf:
    """Polynomial whose monomials are the set bits of a coefficient buffer."""
    return Anf(n, frozenset(
        frozenset(j + 1 for j in range(n) if idx >> j & 1)
        for idx in np.flatnonzero(np.unpackbits(coeff, bitorder="little")).tolist()
    ))


def table_to_anf(t: TruthTable) -> Anf:
    """Polynomial coefficients of a table via the subset-sum transform."""
    return coefficients_to_anf(t.n, mobius(t.buffer(), t.n))


def anf_to_table(a: Anf) -> TruthTable:
    """Inverse of :func:`table_to_anf`; round trip is the identity."""
    idx = np.array([sum(1 << (v - 1) for v in term) for term in a.terms], np.int64)
    coeff = np.zeros(_nbytes(a.n), np.uint8)
    np.bitwise_or.at(coeff, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
    return TruthTable.from_buffer(a.n, mobius(coeff, a.n))


_MAGIC = b"BFRG 1 n="


def write_table(t: TruthTable, path: str | Path) -> None:
    """Write as BFRG v1: ``BFRG 1 n=<arity>\\n`` then ceil(2**n/8) raw bytes.

    Bit order is little-endian within each byte, so bit 0 of byte 0 is the
    output at index 0.
    """
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC + str(t.n).encode("ascii") + b"\n")
        fh.write(t.buffer())


def read_table(path: str | Path) -> TruthTable:
    """Read a BFRG v1 file; raises a distinct BfrgError subclass per defect."""
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise BfrgMagicError("missing header line")
    header, payload = data[:nl], data[nl + 1 :]
    if not header.startswith(_MAGIC):
        raise BfrgMagicError(f"bad magic/version in header {header[:16]!r}")
    arity_field = header[len(_MAGIC) :]
    try:
        n = int(arity_field.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise BfrgArityError(f"unparseable arity field {arity_field!r}") from None
    if not 0 <= n <= N_MAX:
        raise BfrgArityError(f"arity {n} outside [0, {N_MAX}]")
    expected = _nbytes(n)
    if len(payload) < expected:
        raise BfrgPayloadError(
            f"truncated payload: {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise BfrgPayloadError(
            f"trailing data: {len(payload)} bytes, expected {expected}"
        )
    bits = int.from_bytes(payload, "little")
    if bits >> (1 << n):
        raise BfrgPayloadError("nonzero padding bits beyond 2**n")
    return TruthTable(n, bits)
