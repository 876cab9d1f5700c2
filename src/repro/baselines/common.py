"""Shared machinery for the baseline capture libraries.

Both ProvLake and DfAnalyzer capture clients follow the same pattern the
paper analyzes (Table VI): build a provenance record, serialize it to
verbose JSON, and POST it over a **blocking** HTTP/1.1 request on a
keep-alive TCP connection.  The workflow thread is stalled for the whole
serialize + transmit + server + response cycle — the root cause of the
Table II overheads.

The wire mechanics of that pattern (the keep-alive session, the error
swallowing, the radio-listen energy accounting) live in one place:
:class:`HttpPostCaptureTransport`, which doubles as the registered
``http`` transport of the unified capture API — so the baselines here
and ``create_client(..., transport="http")`` (the sync-HTTP ablation)
exercise the same blocking POST path.

The classes here also define the uniform capture-client interface that
lets one instrumented workload run against any capture system (ProvLight,
the baselines, or no capture at all):

* ``now`` property — simulated clock for record timestamps;
* ``setup()`` / ``capture(record, groupable)`` / ``flush_groups()`` /
  ``drain()`` — generators;
* ``close()``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..capture import CaptureConfig, CaptureTransport, register_transport
from ..core.model import count_attributes_from_record
from ..device import Device
from ..http import HttpRequestError, HttpSession
from ..net import Endpoint

__all__ = [
    "NullCaptureClient",
    "BlockingHttpCaptureClient",
    "HttpPostCaptureTransport",
    "decode_json_records",
    "iso_time",
]

#: collector resource the ``http`` capture transport POSTs to by default
DEFAULT_HTTP_CAPTURE_PATH = "/provlight"


def iso_time(seconds: float) -> str:
    """Format a simulated timestamp the way the real libraries do
    (ISO-8601-ish strings inflate the JSON exactly like in production)."""
    ms = int(round(seconds * 1000))
    s, ms = divmod(ms, 1000)
    m, s = divmod(s, 60)
    h, m = divmod(m, 60)
    return f"2023-01-17T{h:02d}:{m:02d}:{s:02d}.{ms:03d}Z"


def decode_json_records(payload: bytes) -> Tuple[List[Any], Dict[str, Any]]:
    """The collector's translate step for a baseline POST: ``(records,
    body)``.  Both libraries send one JSON object whose ``messages`` are
    the records; DfAnalyzer ingests the body as it is.  Raises on a body
    that is not JSON or has no ``messages``, which the ingest front
    counts as malformed."""
    body = json.loads(payload)
    return body["messages"], body


class HttpPostCaptureTransport(CaptureTransport):
    """Blocking HTTP/1.1 POST capture transport (the baselines' wire).

    ``blocking = True``: ``send()`` runs in the caller's process, so
    every POST stalls the workflow's critical path, reproducing the
    synchronous request/response stall of the real ProvLake/DfAnalyzer
    libraries.  A failed POST is counted and raises
    :class:`~repro.http.HttpRequestError`, the truthful ack hook a
    durable client's journal needs; the callers absorb it — like the
    real libraries, capture failure must not crash the instrumented
    application.
    """

    name = "http"
    blocking = True
    delivery_error = HttpRequestError
    requires_setup = False

    def __init__(self, device: Device, server: Endpoint, topic: str = "",
                 config: Optional[CaptureConfig] = None,
                 path: Optional[str] = None,
                 user_agent: str = "provlight-http-capture/1.0"):
        self.device = device
        self.env = device.env
        self.server = server
        if path is None:
            path = topic if topic.startswith("/") else DEFAULT_HTTP_CAPTURE_PATH
        self.path = path
        self.session = HttpSession(device.host, user_agent=user_agent)
        metrics = self.env.metrics
        self.requests_sent = metrics.counter("http-capture", "requests_sent", device=device.name)
        self.body_bytes = metrics.counter("http-capture", "body_bytes", device=device.name)
        self.capture_errors = metrics.counter("http-capture", "capture_errors", device=device.name)

    def connect(self):
        """Nothing to pre-establish: the first POST dials the server."""
        return None
        yield  # pragma: no cover - generator shape

    def register(self, topic: str):
        return self.path
        yield  # pragma: no cover - generator shape

    def send(self, body: bytes):
        """Generator: POST ``body``; returns once the response is in,
        and raises :class:`~repro.http.HttpRequestError` (counted in
        ``capture_errors``) when the POST failed."""
        self.body_bytes.record(len(body))
        error: Optional[Exception] = None
        try:
            response = yield from self.device.blocking_network_wait(
                self.session.post(self.server, self.path, body)
            )
            if not response.ok:
                error = HttpRequestError(
                    f"collector rejected capture POST: {response.status}"
                )
        except HttpRequestError as exc:
            error = exc
        finally:
            self.requests_sent.record()
        # resume where a completion event succeeded now would be
        # processed: behind any entry already due now
        if not self.env.zero_delay_is_next():
            yield self.env.timeout(0.0)
        if error is not None:
            self.capture_errors.record()
            raise error

    def disconnect(self) -> None:
        self.session.close()


register_transport("http", HttpPostCaptureTransport)


class NullCaptureClient:
    """No-op capture client: the "without provenance" control run.

    The paper's overhead metric is the relative difference against this.
    """

    def __init__(self, device: Device):
        self.device = device
        self.env = device.env
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
        return None
        yield  # pragma: no cover

    def flush_groups(self):
        return None
        yield  # pragma: no cover

    def drain(self):
        return None
        yield  # pragma: no cover

    def close(self) -> None:
        pass


class BlockingHttpCaptureClient:
    """Base class for the ProvLake/DfAnalyzer-style capture libraries.

    Subclasses define the cost constants, the JSON wire format (envelope +
    per-record rendering) and whether grouping is supported.  The wire
    I/O itself goes through :class:`HttpPostCaptureTransport`, the same
    adapter the unified capture API registers as ``http``.
    """

    #: subclasses: human name for diagnostics
    system_name = "baseline"
    #: ProvLake's grouping batches *every* message (its feature predates
    #: ProvLight's ended-tasks-only refinement), so subclasses that group
    #: set this to ignore the per-record ``groupable`` hint.
    group_all = False

    def __init__(
        self,
        device: Device,
        server: Endpoint,
        path: str,
        lib_bytes: int,
        group_size: int = 0,
    ):
        if device.host is None:
            raise RuntimeError(f"device {device.name} is not attached to a network host")
        if group_size and not self.supports_grouping():
            raise ValueError(f"{self.system_name} does not support grouping")
        self.device = device
        self.env = device.env
        self.server = server
        self.path = path
        self.group_size = group_size
        self.transport = HttpPostCaptureTransport(
            device, server, path=path,
            user_agent=f"{self.system_name}-capture/1.0",
        )
        self._buffer: List[Dict[str, Any]] = []
        self._lib_bytes = lib_bytes
        device.memory.allocate(lib_bytes, tag="capture-static")
        self.records_captured = device.env.metrics.counter(
            "capture", "records_captured", device=device.name)

    # -- interface hooks for subclasses -------------------------------------
    def supports_grouping(self) -> bool:
        return False

    def build_cost_s(self, n_attrs: int) -> float:
        raise NotImplementedError

    def flush_compute_cost_s(self, records: List[Dict[str, Any]]) -> float:
        raise NotImplementedError

    def flush_io_wait_s(self) -> float:
        raise NotImplementedError

    def render_body(self, records: List[Dict[str, Any]]) -> bytes:
        raise NotImplementedError

    # -- capture-client interface ----------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now

    def setup(self):
        """Nothing to pre-establish: the first POST dials the server."""
        return self
        yield  # pragma: no cover

    def capture(self, record: Dict[str, Any], groupable: bool = True):
        """Generator: capture one record, blocking like the real library."""
        self.records_captured.record()
        n_attrs = count_attributes_from_record(record)
        yield from self.device.cpu.run(
            compute_s=self.build_cost_s(n_attrs), tag="capture"
        )
        if self.group_size > 0 and (groupable or self.group_all):
            self._buffer.append(record)
            self.device.memory.allocate(_record_footprint(record), tag="capture-buffers")
            if len(self._buffer) >= self.group_size:
                yield from self._flush()
        else:
            yield from self._post([record])

    def flush_groups(self):
        """Generator: send any partially filled group."""
        if self._buffer:
            yield from self._flush()

    def drain(self):
        """Blocking clients have nothing pending once capture returns."""
        return None
        yield  # pragma: no cover

    def close(self) -> None:
        self.transport.disconnect()
        self.device.memory.free(self._lib_bytes, tag="capture-static")

    # -- internals ---------------------------------------------------------------
    def _flush(self):
        records, self._buffer = self._buffer, []
        for record in records:
            self.device.memory.free(_record_footprint(record), tag="capture-buffers")
        yield from self._post(records)

    def _post(self, records: List[Dict[str, Any]]):
        yield from self.device.cpu.run(
            compute_s=self.flush_compute_cost_s(records),
            io_wait_s=self.flush_io_wait_s(),
            tag="capture",
        )
        try:
            yield from self.transport.send(self.render_body(records))
        except HttpRequestError:
            pass  # counted; like the real library, carry on


def _record_footprint(record: Dict[str, Any]) -> int:
    """Rough in-memory footprint of a buffered record."""
    return 300 + 40 * count_attributes_from_record(record)
