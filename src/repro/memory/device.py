"""A whole-GPU memory model: cell faults in, XID event sequences out.

``GpuMemory`` glues the SECDED code, the row remapper, and the containment
unit into the Figure-3 flow:

1. a *read* of a word with flipped bits runs the SECDED decoder;
2. a corrected single-bit error increments the SBE counter (never logged —
   exactly why the paper studies DBEs only) and, per NVIDIA's rule, two
   SBEs at one address escalate to a remap request;
3. an uncorrectable (double-bit) error logs a DBE, requests a row remap
   (RRE or RRF), and on RRF falls through to containment (Contained /
   Uncontained), mirroring the measured Figure-7 tree.

The calibrated fault kernel in :mod:`repro.faults` abstracts exactly this
machine; ``GpuMemory`` exists so the abstraction can be checked against a
mechanistic model (see ``tests/paper/test_ablations.py::TestMemoryAblation``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.memory.containment import ContainmentOutcome, ContainmentUnit
from repro.memory.remap import RemapOutcome, RowRemapper
from repro.memory.secded import DecodeStatus, decode, encode, flip_bits

Address = Tuple[int, int, int]  # (bank, row, column)


class MemoryEventKind(enum.Enum):
    """Loggable outcomes, named by their XID."""

    DBE = 48
    RRE = 63
    RRF = 64
    CONTAINED = 94
    UNCONTAINED = 95


@dataclass(frozen=True)
class MemoryEvent:
    kind: MemoryEventKind
    address: Address

    @property
    def xid(self) -> int:
        return self.kind.value


@dataclass
class GpuMemory:
    """One GPU's protected memory.

    ``supports_containment`` distinguishes A100/H100 (True) from A40-class
    parts (False): without containment, every remap failure leaves the GPU
    inoperable immediately.
    """

    supports_containment: bool = True
    containment_success_prob: float = 0.43
    #: Columns per offlinable page (sets the page granularity of
    #: containment's dynamic offlining).
    page_size_columns: int = 256
    remapper: RowRemapper = field(default_factory=RowRemapper)
    containment: ContainmentUnit = field(init=False)
    sbe_corrected: int = 0
    _stored: Dict[Address, int] = field(default_factory=dict)
    _sbe_history: Dict[Address, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.containment = ContainmentUnit(
            supported=self.supports_containment,
            offlining_supported=self.supports_containment,
            success_prob=self.containment_success_prob,
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def write(self, address: Address, data: int) -> None:
        self._stored[address] = encode(data)

    def inject_bit_flips(self, address: Address, positions: List[int]) -> None:
        """Corrupt a stored codeword (particle strike / weak cell)."""
        codeword = self._stored.get(address, encode(0))
        self._stored[address] = flip_bits(codeword, positions)

    def read(
        self,
        address: Address,
        rng: np.random.Generator,
        owning_pid: Optional[int] = None,
    ) -> Tuple[Optional[int], List[MemoryEvent]]:
        """Read a word, running the full Figure-3 recovery flow.

        Returns ``(data, events)``; ``data`` is None when the error is
        uncorrectable (the consumer sees poison).
        """
        codeword = self._stored.get(address, encode(0))
        result = decode(codeword)
        if result.status is DecodeStatus.OK:
            return result.data, []
        if result.status is DecodeStatus.CORRECTED_SBE:
            self.sbe_corrected += 1
            self._stored[address] = encode(result.data)  # scrub
            events: List[MemoryEvent] = []
            seen = self._sbe_history.get(address, 0) + 1
            self._sbe_history[address] = seen
            if seen >= 2:
                # NVIDIA's rule: 2 SBEs at one address trigger a remap
                # (an RRE without any preceding logged DBE).
                events.extend(self._remap_flow(address, log_dbe=False,
                                               rng=rng, owning_pid=owning_pid))
                self._sbe_history[address] = 0
            return result.data, events
        # Uncorrectable (DBE or aliased multi-bit): Figure 3's right side.
        return None, self._remap_flow(address, log_dbe=True, rng=rng,
                                      owning_pid=owning_pid)

    # ------------------------------------------------------------------

    def _remap_flow(
        self,
        address: Address,
        *,
        log_dbe: bool,
        rng: np.random.Generator,
        owning_pid: Optional[int],
    ) -> List[MemoryEvent]:
        events: List[MemoryEvent] = []
        if log_dbe:
            events.append(MemoryEvent(MemoryEventKind.DBE, address))
        bank, row, _column = address
        outcome = self.remapper.request_remap((bank, row))
        if outcome is RemapOutcome.REMAPPED:
            events.append(MemoryEvent(MemoryEventKind.RRE, address))
            return events
        if outcome is RemapOutcome.ALREADY_REMAPPED:
            return events
        events.append(MemoryEvent(MemoryEventKind.RRF, address))
        # Containment after a remap failure (A100/H100); A40 goes straight
        # to the error state.
        page = self._page_of(address)
        result = self.containment.contain(page, rng, owning_pid=owning_pid)
        if result.outcome is ContainmentOutcome.CONTAINED:
            events.append(MemoryEvent(MemoryEventKind.CONTAINED, address))
        elif result.outcome is ContainmentOutcome.UNCONTAINED:
            events.append(MemoryEvent(MemoryEventKind.UNCONTAINED, address))
        # UNSUPPORTED: no containment event is logged; the GPU is simply in
        # an error state (pre-Ampere behaviour).
        return events

    def _page_of(self, address: Address) -> int:
        bank, row, column = address
        return (bank << 20) | (row << 4) | (column // self.page_size_columns)

    # ------------------------------------------------------------------

    @property
    def operable(self) -> bool:
        return not self.containment.in_error_state

    def reset(self) -> None:
        """GPU reset: clears the error state and activates staged remaps."""
        self.containment.reset()
        self.remapper.acknowledge_reset()
