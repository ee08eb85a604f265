"""Vector clocks.

Used by the causal-delivery layer (:mod:`repro.net.causal`) that implements
the paper's assumption 1 — inter-MSS communication is reliable and
causally ordered — and by the trace verifier.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

#: ``(sender, seq)`` — the identity of one stamp of the causal layer.
Head = Tuple[str, int]


class VectorClock:
    """A sparse vector clock over node-id strings.

    Missing entries are zero.  Comparison follows the usual partial order:
    ``a <= b`` iff every component of ``a`` is <= the one in ``b``.

    ``heads`` is plain data beside the components, owned by
    :class:`repro.net.causal.CausalOrdering`: on a clock that layer has
    frozen it names the maximal stamps the clock is the pointwise max
    of, which is what :meth:`missing`, :meth:`merged` and the layer's
    inline probes work from.  It is empty on every other clock and
    takes no part in ``==`` or ``hash``.
    """

    __slots__ = ("_clock", "heads")

    def __init__(self, clock: Optional[Mapping[str, int]] = None) -> None:
        self._clock: Dict[str, int] = {k: v for k, v in (clock or {}).items() if v}
        self.heads: Tuple[Head, ...] = ()

    def tick(self, node: str) -> None:
        """Advance *node*'s component by one."""
        self._clock[node] = self._clock.get(node, 0) + 1

    def bump(self, node: str, value: int) -> None:
        """Raise *node*'s component to at least *value*."""
        if value > self._clock.get(node, 0):
            self._clock[node] = value

    def get(self, node: str) -> int:
        return self._clock.get(node, 0)

    def copy(self) -> "VectorClock":
        out = VectorClock.__new__(VectorClock)
        out._clock = self._clock.copy()
        out.heads = ()
        return out

    def merge(self, other: "VectorClock") -> None:
        """Pointwise max, in place."""
        clock = self._clock
        get = clock.get
        for node, value in other._clock.items():
            if value > get(node, 0):
                clock[node] = value

    def update_max(self, other: "VectorClock") -> list[str]:
        """Pointwise max, in place; return the components that advanced.

        Like :meth:`merge`, but reports which components actually grew —
        the causal layer uses this to wake only the hold-back buckets
        whose blocking component moved.
        """
        advanced = []
        clock = self._clock
        get = clock.get
        for node, value in other._clock.items():
            if value > get(node, 0):
                clock[node] = value
                advanced.append(node)
        return advanced

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Pointwise max, as a new clock whose heads are the heads of
        either operand that the other does not cover.  A head both
        operands list is covered by both and must still survive, once."""
        out = self.copy()
        out.merge(other)
        mine, theirs = self._clock.get, other._clock.get
        out.heads = tuple(
            [head for head in self.heads
             if head in other.heads or theirs(head[0], 0) < head[1]]
            + [head for head in other.heads if mine(head[0], 0) < head[1]])
        return out

    def missing(self, other: "VectorClock") -> Optional[str]:
        """The sender of the first head of *other* this clock has not
        reached, or None when it has reached them all.

        Between clocks of one causal layer ``missing(other) is None``
        is ``other <= self`` (the lemma in :mod:`repro.net.causal`), at
        one dict probe per head instead of one per component.
        """
        get = self._clock.get
        for sender, seq in other.heads:
            if get(sender, 0) < seq:
                return sender
        return None

    def dominates(self, other: "VectorClock") -> bool:
        """True when ``other <= self`` (pointwise)."""
        get = self._clock.get
        for node, value in other._clock.items():
            if get(node, 0) < value:
                return False
        return True

    def __le__(self, other: "VectorClock") -> bool:
        return other.dominates(self)

    def __lt__(self, other: "VectorClock") -> bool:
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._clock == other._clock

    def __hash__(self) -> int:
        return hash(frozenset(self._clock.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._clock.items()))
        return f"VC({inner})"
