"""Declarative configuration for the unified capture API.

One frozen :class:`CaptureConfig` selects everything that varies between
the paper's capture scenarios — transport x grouping x QoS x cipher —
plus the calibration overrides (costs, memory footprints) the harness
uses to fit the paper's tables.  The same config object drives
:func:`repro.capture.create_client`, the experiment harness
(``ExperimentSetup.capture_config()``) and the E2Clab Provenance
Manager, so an experimental condition is described once and reused
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..calibration import (
    MEMORY_FOOTPRINTS,
    PROVLIGHT_COSTS,
    MemoryFootprints,
    ProvLightCosts,
)

__all__ = ["CaptureConfig", "DEFAULT_TRANSPORT"]

#: The paper's transport choice (MQTT-SN QoS 2 over UDP).
DEFAULT_TRANSPORT = "mqttsn"


@dataclass(frozen=True)
class CaptureConfig:
    """Everything that defines how one capture client behaves.

    The client-side critical path (cost charging, grouping, encoding,
    memory accounting) is owned by :class:`~repro.capture.CaptureClient`
    and is identical for every transport, so any difference between two
    configs that differ only in ``transport`` is attributable to the
    protocol alone.
    """

    #: registered transport name (see :func:`repro.capture.transport_names`)
    transport: str = DEFAULT_TRANSPORT
    #: group ended-task records in batches of this size (0 = no grouping)
    group_size: int = 0
    #: zlib-compress encoded payloads (paper's default)
    compress: bool = True
    #: MQTT-SN quality of service for transports that honour it
    qos: int = 2
    #: optional :class:`~repro.core.security.PayloadCipher` for
    #: authenticated payload encryption
    cipher: Optional[Any] = None
    #: explicit client identity (transports that need one generate it;
    #: durable clients also key their journal and dedup identity on it,
    #: falling back to the stable ``device-name/topic`` pair)
    client_id: Optional[str] = None
    #: calibrated client-side costs (Table VII/VIII fits)
    costs: ProvLightCosts = PROVLIGHT_COSTS
    #: calibrated resident/per-message memory footprints (Fig. 6b fits)
    footprints: MemoryFootprints = MEMORY_FOOTPRINTS
    #: write every outbound payload through an append-only write-ahead journal
    #: before dispatch; unacknowledged entries survive crashes and are
    #: replayed on reconnect (at-least-once, deduplicated server-side)
    durable: bool = False
    #: directory holding the journal files (durable clients only);
    #: ``None`` uses :data:`repro.capture.journal.DEFAULT_JOURNAL_DIR`
    journal_dir: Optional[str] = None
    #: optional record signer (``sign``/``verify``/``algorithm``) for
    #: HyperProv-style tamper-evident journals — see
    #: :class:`~repro.capture.journal.HmacRecordSigner` and
    #: :class:`~repro.capture.journal.EcdsaRecordSigner`
    signer: Optional[Any] = None
    #: reconnect backoff: first delay, growth factor, ceiling, jitter
    #: fraction (each delay is scaled by ``1 ± jitter * U``) — the state
    #: machine in :class:`~repro.capture.CaptureClient` uses these
    reconnect_base_s: float = 0.5
    reconnect_factor: float = 2.0
    reconnect_max_s: float = 30.0
    reconnect_jitter: float = 0.1

    def __post_init__(self):
        if not self.transport or not isinstance(self.transport, str):
            raise ValueError(f"transport must be a non-empty string, got {self.transport!r}")
        if self.group_size < 0:
            raise ValueError(f"group_size must be >= 0, got {self.group_size}")
        if self.qos not in (0, 1, 2):
            raise ValueError(f"qos must be 0, 1 or 2, got {self.qos}")
        if self.reconnect_base_s <= 0:
            raise ValueError(f"reconnect_base_s must be > 0, got {self.reconnect_base_s}")
        if self.reconnect_factor < 1.0:
            raise ValueError(f"reconnect_factor must be >= 1, got {self.reconnect_factor}")
        if self.reconnect_max_s < self.reconnect_base_s:
            raise ValueError("reconnect_max_s must be >= reconnect_base_s")
        if not 0.0 <= self.reconnect_jitter < 1.0:
            raise ValueError(f"reconnect_jitter must be in [0, 1), got {self.reconnect_jitter}")

    def with_(self, **changes) -> "CaptureConfig":
        """A copy of this config with ``changes`` applied."""
        return replace(self, **changes)

    def describe(self) -> str:
        parts = [self.transport]
        if self.group_size:
            parts.append(f"group={self.group_size}")
        if not self.compress:
            parts.append("uncompressed")
        if self.qos != 2:
            parts.append(f"qos={self.qos}")
        if self.cipher is not None:
            parts.append("encrypted")
        if self.durable:
            parts.append("durable")
        return " ".join(parts)
