"""PROV-IO- and Komadu-style capture models (paper Table IV).

The paper *excludes* these two systems from its performance analysis
because of design-level limitations, not measured numbers:

* **PROV-IO** "does not send the captured data over the network ...
  Instead, it periodically dumps the in-memory provenance graph to
  disk" — unsuitable for flash-backed, RAM-limited IoT devices;
* **Komadu** has no client/server split: "the capture and the processing
  of the captured information run in the same machine".

To make Table IV executable rather than prose, this module implements
both behaviours against the simulated device models, and the tests
demonstrate exactly the limitations the paper cites: PROV-IO's growing
in-memory graph plus periodic flash stalls, and Komadu's server-grade
processing cost charged to the edge CPU.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..calibration import MS, SERVER_COSTS
from ..core.model import count_attributes_from_record
from ..core.serialization import encode_value
from ..device import Device

__all__ = ["ProvIOClient", "KomaduClient", "FlashStorage"]


class FlashStorage:
    """A small flash/SD storage model for edge devices.

    eMMC/SD write paths on boards like the A8-M3 are slow and bursty;
    writes block for ``size/bandwidth`` plus a per-sync latency.
    """

    def __init__(self, env, write_bandwidth_bps: float = 6e6 * 8,
                 sync_latency_s: float = 18 * MS):
        self.env = env
        self.write_bandwidth_bps = write_bandwidth_bps
        self.sync_latency_s = sync_latency_s
        self.bytes_written = env.metrics.counter("flash", "bytes_written")

    def write(self, nbytes: int):
        """Generator: blocking write of ``nbytes`` (with fsync)."""
        self.bytes_written.record(nbytes)
        yield self.env.timeout(
            nbytes * 8.0 / self.write_bandwidth_bps + self.sync_latency_s
        )


class ProvIOClient:
    """PROV-IO-style capture: in-memory graph, periodic dump to disk.

    Implements the capture-client interface, so the standard workloads
    run unmodified — and exhibit the paper's two objections: the graph
    grows resident memory without bound between dumps, and each dump
    stalls the workflow for a flash write of the *whole* graph.
    """

    def __init__(self, device: Device, dump_every_records: int = 50,
                 storage: Optional[FlashStorage] = None):
        if dump_every_records <= 0:
            raise ValueError("dump_every_records must be positive")
        self.device = device
        self.env = device.env
        self.storage = storage or FlashStorage(device.env)
        self.dump_every_records = dump_every_records
        self._graph: List[Dict[str, Any]] = []
        self._graph_bytes = 0
        metrics = self.env.metrics
        self.records_captured = metrics.counter("capture", "records_captured", device=device.name)
        self.dumps = metrics.counter("capture", "dumps", device=device.name)

    @property
    def now(self) -> float:
        return self.env.now

    def setup(self):
        return self
        yield  # pragma: no cover

    def capture(self, record: Dict[str, Any], groupable: bool = True):
        self.records_captured.record()
        n_attrs = count_attributes_from_record(record)
        # graph insertion: node/edge building, cheap-ish but resident
        yield from self.device.cpu.run(
            compute_s=1.1 * MS + 0.004 * MS * n_attrs, tag="capture"
        )
        size = len(encode_value(record)) + 260  # node/edge object overhead
        self._graph.append(record)
        self._graph_bytes += size
        self.device.memory.allocate(size, tag="capture-buffers")
        if len(self._graph) % self.dump_every_records == 0:
            yield from self._dump()

    def _dump(self):
        """Serialize and write the whole graph (PROV-IO keeps it around)."""
        yield from self.device.cpu.run(
            compute_s=0.02 * MS * max(1, self._graph_bytes // 100), tag="capture"
        )
        yield from self.storage.write(self._graph_bytes)
        self.dumps.record(self._graph_bytes)

    def flush_groups(self):
        return None
        yield  # pragma: no cover

    def drain(self):
        if self._graph:
            yield from self._dump()

    def close(self) -> None:
        self.device.memory.free(self._graph_bytes, tag="capture-buffers")
        self._graph.clear()
        self._graph_bytes = 0

    @property
    def resident_graph_bytes(self) -> int:
        return self._graph_bytes


class KomaduClient:
    """Komadu-style capture: ingest pipeline runs on the capturing machine.

    Komadu's notification/ingest/storage stack is server software; with no
    client/server separation the edge device pays the full processing cost
    (parse, channel dispatch, relational insert) for every captured record.
    """

    def __init__(self, device: Device, backend=None):
        self.device = device
        self.env = device.env
        self.backend = backend
        self.records_captured = self.env.metrics.counter(
            "capture", "records_captured", device=device.name)

    @property
    def now(self) -> float:
        return self.env.now

    def setup(self):
        return self
        yield  # pragma: no cover

    def capture(self, record: Dict[str, Any], groupable: bool = True):
        self.records_captured.record()
        n_attrs = count_attributes_from_record(record)
        # client-side record building (comparable to other libraries)...
        yield from self.device.cpu.run(
            compute_s=1.6 * MS + 0.004 * MS * n_attrs, tag="capture"
        )
        # ...plus the whole server pipeline, locally: XML-ish parsing,
        # channel handling and a relational insert per record.
        yield from self.device.cpu.run(
            compute_s=34.0 * MS + 0.02 * MS * n_attrs,
            io_busy_s=SERVER_COSTS.backend_insert_per_record_s * 12,
            tag="capture-server",
        )
        if self.backend is not None:
            self.backend(record)

    def flush_groups(self):
        return None
        yield  # pragma: no cover

    def drain(self):
        return None
        yield  # pragma: no cover

    def close(self) -> None:
        pass
