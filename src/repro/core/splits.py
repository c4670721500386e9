"""Canonical window split rules — policy element 3, implemented once.

Both engines that resolve collisions — the reference loop's
:class:`~repro.core.window.WindowingProcess` and the compiled engine
(:mod:`repro.mac.kernels.engine`) — split a colliding span into
``arity`` equal-measure parts and examine them in the policy's order.
Those two decisions are the protocol's split semantics, and they live
*here* and nowhere else: :func:`split_parts` carves the parts (the
:func:`~repro.core.timeline.split_pieces` walk behind
``Span.split_at_measure``, so both engines produce the same float
endpoints bit for bit) and :func:`examination_order` realises element 3
(``"older"`` / ``"newer"`` deterministic orders, ``"random"`` via the
caller's generator with the same draw pattern everywhere).

This module sits in :mod:`repro.core` so the windowing state machine can
import it without touching :mod:`repro.mac`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from .timeline import Pieces, Span, split_pieces

__all__ = ["split_parts", "examination_order"]


def split_parts(span: Union[Span, Pieces], arity: int) -> list:
    """Split a span into ``arity`` equal-measure parts, oldest first.

    ``span`` is a :class:`~repro.core.timeline.Span` or, in the
    compiled engine's flat form, its raw ``(lo, hi)`` pieces; the parts
    come back in the same form.  The offset of every cut is
    ``total / arity`` with ``total`` the *original* span measure — not
    the shrinking remainder — so the float endpoints are reproducible by
    any kernel that replays the same walk.
    """
    flat = not isinstance(span, Span)
    pieces = span if flat else span.pieces
    total = 0.0  # Span.measure: the same left-to-right sum
    for lo, hi in pieces:
        total += hi - lo
    offset = total / arity
    parts: List[List[tuple]] = []
    rest = pieces
    for _ in range(arity - 1):
        part, rest = split_pieces(rest, offset)
        parts.append(part)
    parts.append(rest)
    return parts if flat else [Span(tuple(part)) for part in parts]


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
