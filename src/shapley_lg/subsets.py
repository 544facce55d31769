"""Subsets of the variable indices ``[1:p]`` encoded as integer bitmasks.

A subset ``u`` of ``{1, ..., p}`` is stored as ``sum(2**(i-1) for i in u)``,
so bit ``i-1`` of the mask says whether variable ``i`` belongs to ``u``.
Mask ``0`` is the empty set and ``2**p - 1`` is the full set. This encoding
makes the pairing of ``u`` and ``u + {i}`` a single integer addition, which
is what the lattice loops in :mod:`shapley_lg.indices` rely on.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

from .errors import DimensionCapError

#: Largest dimension for which a full 2**p lattice may be materialised.
FULL_LATTICE_CAP = 25


def check_lattice_cap(p: int) -> None:
    """Raise :class:`DimensionCapError` if a 2**p enumeration is not supported."""
    if p > FULL_LATTICE_CAP:
        raise DimensionCapError(f"2**{p} subsets of {p} variables pass the "
                                f"lattice cap of {FULL_LATTICE_CAP}")


def encode(u: Iterable[int], p: int) -> int:
    """Encode a collection of distinct variable indices in ``[1:p]`` as a mask."""
    mask = 0
    for i in u:
        if not 1 <= i <= p:
            raise ValueError(f"variable index {i} outside [1:{p}]")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"variable index {i} repeated")
        mask |= bit
    return mask


def decode(j: int, p: int) -> tuple[int, ...]:
    """Sorted tuple of the variable indices in mask ``j``, in O(members)."""
    j = operator.index(j)
    if not 0 <= j < (1 << p):
        raise ValueError(f"mask {j} outside [0:2**{p}-1]")
    members = []
    while j:
        members.append((j & -j).bit_length())
        j &= j - 1
    return tuple(members)


def cardinality(j: int) -> int:
    """Number of variables in the subset encoded by ``j``."""
    return j.bit_count()


def cardinality_table(p: int) -> np.ndarray:
    """Array of length 2**p with entry ``j`` equal to ``cardinality(j)``."""
    check_lattice_cap(p)
    card = np.zeros(1 << p, dtype=np.int64)
    for b in range(p):
        half = 1 << b
        card[half : 2 * half] = card[:half] + 1
    return card
