"""The decimation transform: replace f by its XOR-derivative in one input.

``decimate(t, i)`` returns the function of one fewer input that is 1 exactly
where flipping input i changes the output of ``t``.  Decimating a set of
inputs gives the same result in any order, and a polynomial of degree d is
wiped out by any d+1 decimations; those two facts drive everything else in
this package.

The kernel works on the table's packed buffer (see
:meth:`boolrg.truth_table.TruthTable.buffer`) and never unpacks it to one
byte per output: along an index digit b >= 3 it XORs the two
:func:`boolrg.truth_table.digit_blocks` views, the same views the Möbius
butterfly uses.  :func:`walk` converts a table once and yields the buffer
after each step of a decimation order; every function here that follows an
order, and :func:`boolrg.flow.empirical_flow`, consumes it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .truth_table import TruthTable, degree, digit_blocks

# Original-variable labels for a sequence of decimations.  Labels always
# refer to positions in the undecimated arity-n function, regardless of how
# many labels before them have already been removed.
DecimationOrder = tuple[int, ...]

_PAIRS = np.dtype("<u2")


@functools.cache
def _pair_xor_lut(b: int) -> np.ndarray:
    # a byte -> the 4 XORs of its digit-b pairs; then 16 little-endian bits
    # -> both bytes' XORs in one byte.  Built on first use, not at import.
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    pairs = bits.reshape(256, -1, 2, 1 << b)
    xor = (pairs[:, :, 0] ^ pairs[:, :, 1]).reshape(256, 4)
    nibble = (xor << np.arange(4)).sum(axis=1, dtype=np.uint8)
    return ((nibble[:, None] << 4) | nibble).reshape(-1)


def _halve(buf: np.ndarray, b: int) -> np.ndarray:
    """XOR-derivative along index digit ``b`` of a packed table buffer."""
    if b < 3:
        # pairs lie inside bytes: two bytes in, one byte of pair XORs out (a
        # table of at most 8 bits is one byte, padded with zero bits)
        pairs = buf.view(_PAIRS) if len(buf) > 1 else buf.astype(_PAIRS)
        return _pair_xor_lut(b)[pairs]
    lo, hi = digit_blocks(buf, b)
    return (lo ^ hi).view(np.uint8).reshape(-1)


def _popcount_int(buf: np.ndarray) -> int:
    return int.from_bytes(buf, "little").bit_count()


def popcount(buf: np.ndarray) -> int:
    """Set bits of a table buffer (``np.bitwise_count`` needs numpy >= 2)."""
    # below 1 KiB one Python-integer popcount beats numpy's call overhead
    if len(buf) < 1024 or not hasattr(np, "bitwise_count"):
        return _popcount_int(buf)
    return int(np.bitwise_count(buf.view(np.uint64)).sum())


def decimate(t: TruthTable, i: int) -> TruthTable:
    """XOR-derivative of ``t`` with respect to input ``i``.

    The result has arity n-1 over the remaining inputs in their original
    relative order (labels above ``i`` shift down by one).  Output k pairs
    the table bits whose index has digit i-1 equal to 0 and to 1; the kernel
    XORs those pairs word by word in the packed buffer.
    """
    if t.n < 1:
        raise ValueError("cannot decimate a 0-ary function")
    if not 1 <= i <= t.n:
        raise ValueError(f"variable {i} out of range 1..{t.n}")
    return TruthTable.from_buffer(t.n - 1, _halve(t.buffer(), i - 1))


def check_order(n: int, order: Iterable[int]) -> DecimationOrder:
    """Validate distinct labels in 1..n and return them as a tuple."""
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError(f"duplicate labels in order {order}")
    for v in order:
        if not 1 <= v <= n:
            raise ValueError(f"label {v} out of range 1..{n}")
    return order


def walk(t: TruthTable, order: Iterable[int]) -> Iterator[tuple[int, int, np.ndarray]]:
    """Decimate along original-variable labels, one step at a time.

    Yields ``(label, arity left, buffer)`` after each step; the buffer is the
    packed table of the derivative so far (see the module docstring).  The
    table is converted once, however long the order.
    """
    order = check_order(t.n, order)
    remaining = list(range(1, t.n + 1))
    buf = t.buffer()
    for v in order:
        buf = _halve(buf, remaining.index(v))
        remaining.remove(v)
        yield v, len(remaining), buf


def decimate_seq(t: TruthTable, order: Iterable[int]) -> TruthTable:
    """Fold :func:`decimate` over original-variable labels.

    Equivalent to the mod-2 sum of ``t`` over all settings of the decimated
    inputs; the result depends only on the set of labels, not their order.
    """
    buf = None
    for _, m, buf in walk(t, order):
        pass
    return t if buf is None else TruthTable.from_buffer(m, buf)


def sample_orders(
    n: int, count: int, length: int | None = None, seed: int = 0
) -> list[DecimationOrder]:
    """Seeded uniform random decimation orders (permutation prefixes).

    Permutations come from argsorting Philox uniforms, which keeps the
    sample reproducible across platforms and numpy versions.
    """
    length = n if length is None else length
    if not 0 <= length <= n:
        raise ValueError(f"order length {length} out of range 0..{n}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    orders = []
    for _ in range(count):
        perm = np.argsort(rng.random(n))
        orders.append(tuple(int(v) + 1 for v in perm[:length]))
    return orders


def first_zero_step(t: TruthTable, order: Sequence[int], cap: int) -> int | None:
    """First m <= cap with the length-m prefix of ``order`` annihilating ``t``."""
    if t.is_zero():
        return 0
    for step, (_, _, buf) in enumerate(walk(t, order[:cap]), start=1):
        if not buf.any():
            return step
    return None


def annihilation_depth(
    t: TruthTable, orders: Sequence[Sequence[int]] | None = None, cap: int | None = None
) -> int | None:
    """Smallest m such that every length-m decimation yields zero.

    A polynomial of degree d is wiped out by every d+1 decimations and
    survives some d of them, so over all orders the depth is d+1 (0 for the
    zero function); with ``orders=None`` that exact value is returned at
    every arity.  With ``orders`` given, the depth is taken over those
    orders only.  Returns ``None`` when no m <= cap annihilates them all.
    """
    cap = t.n if cap is None else min(cap, t.n)
    if orders is None:
        if t.is_zero():
            return 0
        depth = degree(t) + 1
        return depth if depth <= cap else None
    if not orders:
        raise ValueError("need at least one order")
    deepest = 0
    for order in orders:
        check_order(t.n, order)
        fz = first_zero_step(t, order, cap)
        if fz is None:
            return None
        deepest = max(deepest, fz)
    return deepest


def order_independence_check(
    t: TruthTable, labels: Iterable[int], max_orderings: int = 24, seed: int = 0
) -> bool:
    """True iff decimating the given label set agrees across orderings.

    All |s|! orderings are tried when there are at most ``max_orderings`` of
    them, otherwise a seeded sample of that many.
    """
    labels = check_order(t.n, labels)
    k = len(labels)
    if k <= 1:
        return True
    if math.factorial(k) <= max_orderings:
        orderings: Iterable[tuple[int, ...]] = itertools.permutations(labels)
    else:
        orderings = [
            tuple(labels[v - 1] for v in order)
            for order in sample_orders(k, max_orderings, seed=seed)
        ]
    reference = None
    for ordering in orderings:
        g = decimate_seq(t, ordering)
        if reference is None:
            reference = g
        elif g != reference:
            return False
    return True
