"""Ablation variants of ProvLight for the design-choice analysis.

Paper Section VII-A attributes ProvLight's gains to a combination of
choices: the asynchronous MQTT-SN/UDP transport (major impact on capture
time, energy, CPU, network), payload compression, grouping, and the
simplified data model (major impact on memory, ~1.7%/1.4% further
capture-time/CPU reduction).  The ablation benchmark toggles them one at
a time:

* the transport, compression and grouping are fields of
  :class:`~repro.capture.CaptureConfig` and need no variant class —
  ``transport="http"`` ships ProvLight's model + binary codec through
  the baselines' blocking HTTP POST per message;
* :class:`VerboseModelProvLightClient` — ProvLight's transport, but
  records are built through a heavyweight PROV-document path and carry
  the un-simplified attribute layout.  Isolates the simplified model.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..calibration import MEMORY_FOOTPRINTS, PROVLAKE_COSTS
from ..capture import CaptureClient, CaptureConfig
from ..core.model import count_attributes_from_record
from ..device import Device
from ..net import Endpoint

__all__ = ["VerboseModelProvLightClient"]


class VerboseModelProvLightClient(CaptureClient):
    """ProvLight's transport with a heavyweight provenance data model.

    Records pass through a full PROV-document construction (charged at the
    baselines' record-build cost) and carry the verbose nested layout, so
    payloads are larger and the client's buffers grow — isolating what the
    paper's *simplified data model* buys on top of the protocol.
    """

    def __init__(self, device: Device, server: Endpoint, topic: str,
                 config: Optional[CaptureConfig] = None):
        super().__init__(device, server, topic, config)
        # the heavyweight model's resident footprint matches the baselines'
        extra = MEMORY_FOOTPRINTS.provlake_lib_bytes - self.footprints.provlight_lib_bytes
        self.device.memory.allocate(extra, tag="capture-static")
        self._extra_static = extra

    def capture(self, record: Dict[str, Any], groupable: bool = True):
        n_attrs = count_attributes_from_record(record)
        # heavyweight document building before the normal capture path
        yield from self.device.cpu.run(
            compute_s=PROVLAKE_COSTS.record_build_compute_s
            + PROVLAKE_COSTS.record_build_per_attr_s * n_attrs,
            tag="capture",
        )
        verbose = _verbose_record(record)
        yield from super().capture(verbose, groupable=groupable)

    def close(self) -> None:
        if not self.closed:  # close() is idempotent; free the extra once
            self.device.memory.free(self._extra_static, tag="capture-static")
        super().close()


def _verbose_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Re-shape a record the way non-simplified PROV layouts do."""
    verbose = {
        "@type": f"prov:{record.get('kind', 'record')}",
        "prov:wasAssociatedWith": {
            "agent": {"@id": f"workflow/{record.get('workflow_id')}"}
        },
        "metadata": {
            "schema": "prov-dm-1.1",
            "generated_by": "provlight-verbose",
            "timestamp": {"value": record.get("time"), "unit": "seconds"},
        },
    }
    verbose.update(record)
    verbose["data"] = [
        {
            # keep the simplified keys so translation still works...
            "id": item.get("id"),
            "workflow_id": item.get("workflow_id"),
            "derivations": list(item.get("derivations", ())),
            "attributes": dict(item.get("attributes", {})),
            # ...and add the verbose PROV envelope around them
            "entity": {"@id": f"data/{item.get('id')}"},
            "prov:wasAttributedTo": {
                "agent": {"@id": f"workflow/{item.get('workflow_id')}"}
            },
            "prov:wasDerivedFrom": [
                {"entity": {"@id": f"data/{d}"}} for d in item.get("derivations", ())
            ],
            "attribute_annotations": [
                {"name": key, "type": type(value).__name__}
                for key, value in item.get("attributes", {}).items()
            ],
        }
        for item in record.get("data", ())
    ]
    return verbose
