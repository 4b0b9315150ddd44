"""One counter registry for every layer that counts things.

The sweep engine grew ad-hoc counter dicts as it grew subsystems: the
runner aggregated worker-side deltas into a plain dict, the shared-memory
transport and the pre-decode memo each kept a module-level ``_STATS``
mapping, and ``--stats`` reporting reached into all of them with
hand-written format strings.  The service layer (``repro.service``) needs
the same numbers *plus* its own — accepted, shed, deduped, drained — and
must render them over ``GET /metrics``, so the counting moved behind one
small type instead of a fourth ad-hoc dict.

A :class:`CounterRegistry` is a ``dict`` subclass, deliberately: every
existing call site (``stats["key"] += 1``, ``stats.get(key, 0)``,
snapshot-and-diff loops, equality against plain dicts in tests) keeps
working unchanged, and pickling across the pool boundary costs the same
as the dict it replaces.  On top of the dict contract it adds the three
operations every layer re-implemented by hand:

* :meth:`inc` — bump a counter, creating it at zero first;
* :meth:`merge` — add another mapping's counts in (worker deltas, child
  registries);
* :meth:`render` — deterministic ``name value`` lines, one per counter,
  sorted — the exposition format ``GET /metrics`` serves and tests can
  assert against byte for byte.

Registries are plain per-process objects with no locking: each process
owns its own (exactly like the dicts they replaced), and cross-process
aggregation happens by shipping snapshots and merging in the parent.
"""

from __future__ import annotations

from typing import Mapping, Optional


class CounterRegistry(dict):
    """A named set of monotonic integer counters (a specialised dict)."""

    def __init__(self, initial: Optional[Mapping[str, int]] = None) -> None:
        super().__init__(initial or {})

    # ------------------------------------------------------------- mutation
    def inc(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to ``name`` (creating it at 0); returns the new value."""
        value = self.get(name, 0) + amount
        self[name] = value
        return value

    def merge(self, other: Mapping[str, int]) -> "CounterRegistry":
        """Add every counter of ``other`` into this registry; returns self."""
        for name, value in other.items():
            self[name] = self.get(name, 0) + value
        return self

    # ------------------------------------------------------------ reporting
    def snapshot(self) -> dict:
        """A plain-dict copy (safe to diff against a later state)."""
        return dict(self)

    def render(self, prefix: str = "") -> str:
        """Deterministic ``name value`` exposition lines, sorted by name.

        ``prefix`` is prepended to every counter name (``service_`` for the
        service's ``/metrics`` endpoint).  Non-integer values render via
        ``repr`` so floats round-trip exactly.
        """
        lines = []
        for name in sorted(self):
            value = self[name]
            rendered = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{prefix}{name} {rendered}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={self[name]}" for name in sorted(self))
        return f"CounterRegistry({inner})"


__all__ = ["CounterRegistry"]
