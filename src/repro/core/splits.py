"""Canonical window split rules — policy element 3, implemented once.

Every kernel that resolves collisions — the reference loop's
:class:`~repro.core.window.WindowingProcess`, the compiled engine
(:mod:`repro.mac.kernels.engine`) and the faulted kernel
(:mod:`repro.mac.kernels.faults`) — splits a colliding
span into ``arity`` equal-measure parts and examines them in the
policy's order.  Those two decisions are the protocol's split semantics,
and they live *here* and nowhere else: :func:`split_parts` carves the
parts (the exact ``split_at_measure`` walk, so every kernel produces the
same float endpoints bit for bit) and :func:`examination_order` realises
element 3 (``"older"`` / ``"newer"`` deterministic orders, ``"random"``
via the caller's generator with the same draw pattern everywhere).

This module sits in :mod:`repro.core` so the windowing state machine can
import it without touching :mod:`repro.mac`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .timeline import Span

__all__ = ["split_parts", "examination_order"]


def split_parts(span: Span, arity: int) -> List[Span]:
    """Split a span into ``arity`` equal-measure parts, oldest first.

    The offset of every cut is ``total / arity`` with ``total`` the
    *original* span measure — not the shrinking remainder — so the float
    endpoints are reproducible by any kernel that replays the same walk.
    """
    parts: List[Span] = []
    rest = span
    total = span.measure
    for _ in range(arity - 1):
        piece, rest = rest.split_at_measure(total / arity)
        parts.append(piece)
    parts.append(rest)
    return parts


def examination_order(
    split: str, n_parts: int, rng: Optional[np.random.Generator]
) -> Sequence[int]:
    """Element 3: the order in which split parts are examined.

    ``"older"`` examines oldest-first, ``"newer"`` newest-first, and
    ``"random"`` shuffles a list of part indices with ``rng`` — the
    *list* form specifically, so every kernel consumes the generator's
    bitstream identically (NumPy's array and sequence shuffles draw the
    same way, but pinning one call form removes the question).
    """
    if split == "older":
        return range(n_parts)
    if split == "newer":
        return range(n_parts - 1, -1, -1)
    if rng is None:
        raise ValueError("random split requires an rng")
    order = list(range(n_parts))
    rng.shuffle(order)
    return order
