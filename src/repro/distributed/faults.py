"""Seeded, deterministic fault injection for the network simulator.

The paper's model (Sect. 1.1) assumes a perfectly reliable synchronous
network; its own safety valves (the skeleton's line-7 abort, the
Fibonacci Las-Vegas cessation check) exist because real executions
misbehave.  This module lets the simulator misbehave *on purpose*:

* a :class:`FaultPlan` is consulted by :class:`~repro.distributed.
  simulator.Network` at delivery time and may **drop**, **duplicate**,
  **delay** (bounded asynchrony, up to ``max_delay`` rounds) or
  **reorder** messages, and **crash** processors (crash-stop or
  crash-recover, via :class:`CrashSpec`);
* every decision is derived from a shared PRF
  (:func:`repro.util.rng.make_prf`) keyed on public coordinates
  (round, src, dst, slot) — the same seed always yields the same fault
  schedule for the same traffic pattern, so chaos runs are replayable
  bit for bit.  Each key names one delivery or one inbox of one network
  and recurs only when the plan drives another network, so the draws
  take the PRF's uncached path
  (:meth:`repro.util.rng.SaltedPrf.uncached`): one digest per draw;
* every injected event is recorded as a :class:`FaultEvent` in the
  run's :class:`~repro.distributed.simulator.NetworkStats` (counters
  are always exact; the event log is truncated at
  ``max_logged_events``).

Crash semantics: a crashed processor executes no rounds and every
message addressed to it while down is lost.  A recovering processor
resumes with its pre-crash local state (the fail-pause model); a
:class:`CrashSpec` without ``recover_round`` is a crash-stop.  A spec
with ``amnesia=True`` instead models state loss: at ``recover_round``
the simulator calls the program's ``on_amnesia_recover`` hook, whose
implementations wipe volatile state and re-join via a repair handshake
(see ``docs/robustness.md`` and :mod:`repro.churn.repair_protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.util.rng import SeedLike, ensure_rng, make_prf

#: the fate of a delivery the plan leaves alone (never recorded).
DELIVER = "deliver"
#: fault kinds recorded in :class:`FaultEvent`.
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
REORDER = "reorder"
CRASH = "crash"
RECOVER = "recover"
AMNESIA = "amnesia"
CRASH_DROP = "crash-drop"
LINK_DEAD = "link-dead"


@dataclass(frozen=True)
class CrashSpec:
    """One processor failure: down during [crash_round, recover_round).

    ``recover_round=None`` is a crash-stop.  Round numbers follow the
    simulator's convention (``setup`` is round 0, the first delivery
    round is 1); a spec with ``crash_round <= 0`` also suppresses the
    node's ``setup``.

    ``amnesia=True`` switches the recovery model from fail-pause
    (resume with exact pre-crash state) to amnesia-crash: at
    ``recover_round`` the simulator invokes the program's
    ``on_amnesia_recover`` hook, which is expected to discard volatile
    state and re-join via whatever repair handshake the protocol
    defines.  Amnesia therefore requires a ``recover_round`` — an
    amnesiac crash-stop is indistinguishable from a plain crash-stop.
    """

    node: int
    crash_round: int
    recover_round: Optional[int] = None
    amnesia: bool = False

    def __post_init__(self) -> None:
        if self.recover_round is not None:
            if self.recover_round <= self.crash_round:
                raise ValueError(
                    f"CrashSpec(node={self.node}): recover_round "
                    f"({self.recover_round}) must be > crash_round "
                    f"({self.crash_round}); equal or inverted windows are "
                    "no-ops and almost certainly a typo"
                )
        elif self.amnesia:
            raise ValueError(
                f"CrashSpec(node={self.node}): amnesia=True requires a "
                "recover_round (an amnesiac crash-stop never recovers, so "
                "there is no state to lose)"
            )

    def down_at(self, round_no: int) -> bool:
        if round_no < self.crash_round:
            return False
        return self.recover_round is None or round_no < self.recover_round


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the network's event log."""

    kind: str
    round: int
    src: Optional[int] = None
    dst: Optional[int] = None
    info: Optional[int] = None

    def __str__(self) -> str:
        parts = [f"r{self.round}", self.kind]
        if self.src is not None:
            parts.append(f"{self.src}->{self.dst}")
        elif self.dst is not None:
            parts.append(str(self.dst))
        if self.info is not None:
            parts.append(f"({self.info})")
        return " ".join(parts)


class FaultPlan:
    """Deterministic per-delivery fault schedule.

    ``drop_rate``, ``duplicate_rate`` and ``delay_rate`` partition the
    unit interval (their sum must be <= 1); each (round, src, dst, slot)
    delivery draws one PRF value to pick its fate.  ``reorder_rate`` is
    drawn per (round, dst) inbox and permutes delivery order within the
    round.  ``crashes`` is any iterable of :class:`CrashSpec` (or
    ``(node, crash_round[, recover_round])`` tuples).
    """

    def __init__(
        self,
        seed: SeedLike = None,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        max_delay: int = 2,
        reorder_rate: float = 0.0,
        crashes: Iterable[Any] = (),
        max_logged_events: int = 256,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("delay_rate", delay_rate),
            ("reorder_rate", reorder_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if drop_rate + duplicate_rate + delay_rate > 1.0 + 1e-12:
            raise ValueError(
                "drop_rate + duplicate_rate + delay_rate must be <= 1"
            )
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.max_delay = max_delay
        self.reorder_rate = reorder_rate
        self.max_logged_events = max_logged_events
        #: the PRF's uncached draw: a plan key names one delivery.
        self._draw = make_prf(seed).uncached
        self._crashes: Dict[int, CrashSpec] = {}
        for spec in crashes:
            if not isinstance(spec, CrashSpec):
                spec = CrashSpec(*spec)
            if spec.node in self._crashes:
                raise ValueError(f"duplicate crash spec for node {spec.node}")
            self._crashes[spec.node] = spec

    @property
    def has_crashes(self) -> bool:
        """Whether the plan holds any crash spec.  Without one the
        engine skips every crash query, transition and recovery."""
        return bool(self._crashes)

    @property
    def has_reorders(self) -> bool:
        """Whether ``reorder_rate`` is above zero.  Without it the
        engine never asks for an inbox permutation."""
        return self.reorder_rate > 0.0

    # ------------------------------------------------------------------
    # Crash queries
    # ------------------------------------------------------------------
    def is_crashed(self, node: int, round_no: int) -> bool:
        spec = self._crashes.get(node)
        return spec is not None and spec.down_at(round_no)

    def crashed_nodes(self) -> set:
        """Every node that crashes at any point under this plan."""
        return set(self._crashes)

    def transitions(self, round_no: int) -> List[FaultEvent]:
        """Crash/recover events that take effect exactly at ``round_no``."""
        events = []
        for node in sorted(self._crashes):
            spec = self._crashes[node]
            if spec.crash_round == round_no:
                events.append(FaultEvent(CRASH, round_no, dst=spec.node))
            if spec.recover_round == round_no:
                kind = AMNESIA if spec.amnesia else RECOVER
                events.append(FaultEvent(kind, round_no, dst=spec.node))
        return events

    def amnesia_recoveries(self, round_no: int) -> List[int]:
        """Nodes whose amnesia-crash recovery fires exactly at ``round_no``."""
        return sorted(
            node
            for node, spec in self._crashes.items()
            if spec.amnesia and spec.recover_round == round_no
        )

    # ------------------------------------------------------------------
    # Per-message decisions
    # ------------------------------------------------------------------
    def decide(
        self, round_no: int, src: int, dst: int, slot: int
    ) -> Tuple[str, int]:
        """Fate of one delivery: ``(kind, info)``.

        ``kind`` is :data:`DELIVER`, :data:`DROP`, :data:`DUPLICATE` or
        :data:`DELAY` (``info`` = extra rounds, in [1, max_delay]).
        """
        u = self._draw("msg", round_no, src, dst, slot)
        if u < self.drop_rate:
            return DROP, 0
        u -= self.drop_rate
        if u < self.duplicate_rate:
            return DUPLICATE, 0
        u -= self.duplicate_rate
        if u < self.delay_rate:
            extra = 1 + int(
                self._draw("delay", round_no, src, dst, slot) * self.max_delay
            )
            return DELAY, min(extra, self.max_delay)
        return DELIVER, 0

    def reorder_permutation(
        self, round_no: int, dst: int, size: int
    ) -> Optional[List[int]]:
        """A deterministic inbox permutation, or ``None`` (keep order)."""
        if size < 2 or self.reorder_rate <= 0.0:
            return None
        if self._draw("reorder?", round_no, dst) >= self.reorder_rate:
            return None
        shuffle_seed = int(self._draw("reorder-seed", round_no, dst) * 2**63)
        perm = list(range(size))
        ensure_rng(shuffle_seed).shuffle(perm)
        if perm == sorted(perm):
            return None
        return perm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(drop={self.drop_rate}, dup={self.duplicate_rate}, "
            f"delay={self.delay_rate}x{self.max_delay}, "
            f"reorder={self.reorder_rate}, crashes={sorted(self._crashes)})"
        )
