"""Pairwise-coprime moduli compatible with INT8 matrix engines.

Section 4.1 of the paper fixes the moduli as pairwise-coprime integers taken
from a descending table starting at 256 (``{256, 255, 253, 251, ...}``), so
that the centred residues ``rmod(X, p_i)`` always fit the INT8 input range
``[-128, 127]`` (with the single value ``+128`` wrapping harmlessly to
``-128`` for ``p_1 = 256``).

The table below is generated greedily: walk downward from 256 and keep every
integer that is coprime with all previously kept ones.  This maximises each
modulus (hence the product ``P`` and therefore the attainable accuracy for a
given ``N``) and reproduces the head of the paper's table exactly
(256, 255, 253, 251, ...).  Thirty-two entries are kept, comfortably more
than the ``N <= 20`` supported by the constant tables.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

from ..errors import ModuliError

__all__ = [
    "MODULI_TABLE",
    "MAX_TABLE_SIZE",
    "generate_moduli_table",
    "select_moduli",
    "validate_moduli",
]


def generate_moduli_table(max_value: int = 256, count: int = 32) -> Tuple[int, ...]:
    """Generate the descending pairwise-coprime moduli table.

    Starting from ``max_value`` and walking down, an integer is kept when it
    is coprime with every integer already kept.  The walk stops after
    ``count`` entries or when the candidate drops below 2.
    """
    if max_value < 2:
        raise ModuliError("max_value must be at least 2")
    if count < 1:
        raise ModuliError("count must be positive")
    chosen: list[int] = []
    candidate = max_value
    while candidate >= 2 and len(chosen) < count:
        if all(math.gcd(candidate, p) == 1 for p in chosen):
            chosen.append(candidate)
        candidate -= 1
    return tuple(chosen)


def validate_moduli(moduli: Sequence[int]) -> Tuple[int, ...]:
    """Validate a user-supplied moduli sequence.

    Checks that there are at least two moduli, that each lies in ``[2, 256]``
    (so its centred residues fit INT8), and that they are pairwise coprime.
    Returns the moduli as a tuple.
    """
    mods = tuple(int(p) for p in moduli)
    if len(mods) < 2:
        raise ModuliError(f"need at least 2 moduli, got {len(mods)}")
    if len(set(mods)) != len(mods):
        raise ModuliError("moduli must be distinct")
    for p in mods:
        if not (2 <= p <= 256):
            raise ModuliError(f"modulus {p} outside the INT8-compatible range [2, 256]")
    for i, p in enumerate(mods):
        for q in mods[i + 1:]:
            if math.gcd(p, q) != 1:
                raise ModuliError(f"moduli {p} and {q} are not coprime")
    return mods


#: Size of the precomputed table.
MAX_TABLE_SIZE: int = 32

#: The default moduli table: descending, pairwise coprime, all <= 256.
#: Validated once here, so its prefixes need no check per lookup.
MODULI_TABLE: Tuple[int, ...] = validate_moduli(generate_moduli_table(256, MAX_TABLE_SIZE))


def select_moduli(num_moduli: int, table: Iterable[int] = MODULI_TABLE) -> Tuple[int, ...]:
    """Return the first ``num_moduli`` entries of the moduli table.

    Taking the largest available moduli maximises ``P`` and therefore the
    accuracy attainable with a given number of INT8 GEMMs.  A prefix of the
    default :data:`MODULI_TABLE` (validated at import) is returned as is;
    any other table's prefix goes through :func:`validate_moduli`.
    """
    default = table is MODULI_TABLE
    table = tuple(table)
    if not (2 <= num_moduli <= len(table)):
        raise ModuliError(
            f"num_moduli must be between 2 and {len(table)}, got {num_moduli}"
        )
    prefix = table[:num_moduli]
    return prefix if default else validate_moduli(prefix)
