"""The transport protocol behind the unified capture API.

A *transport* is the thin, protocol-specific layer between the shared
:class:`~repro.capture.CaptureClient` critical path and the wire: it
knows how to establish a session, announce a topic, ship one opaque
payload, and tear down.  Everything else — cost charging, grouping,
encoding, memory accounting, drain semantics — lives in the façade and
is written exactly once.

Concrete adapters live next to the protocol stacks they wrap:

* ``mqttsn`` — :class:`repro.mqttsn.transport.MqttSnCaptureTransport`
  (the paper's choice: asynchronous QoS publish over UDP);
* ``coap`` — :class:`repro.coap.transport.CoapCaptureTransport`
  (confirmable POST, RFC 7252);
* ``http`` — :class:`repro.baselines.common.HttpPostCaptureTransport`
  (the baselines' blocking HTTP/1.1 POST; ``blocking = True``).

New transports subclass :class:`CaptureTransport` and register a factory
with :func:`repro.capture.register_transport`; see
``docs/capture-api.md`` for a worked example.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["CaptureTransport"]


class CaptureTransport:
    """Protocol every capture transport implements.

    ``connect()`` and ``register()`` are generators (they may wait on
    simulated network exchanges).  The façade consults three class
    attributes:

    * ``blocking`` — ``True``: every send is awaited on the workflow's
      critical path (the baselines' HTTP transport), and ``send()`` is
      a generator the caller runs with ``yield from``; ``False``: sends
      are queued to the background sender loop, and ``send()`` returns
      a completion :class:`~repro.simkernel.Event`.
    * ``delivery_error`` — what a failed delivery raises; anything else
      out of a blocking ``send()`` is a bug and surfaces from
      ``capture()``.
    * ``requires_setup`` — ``True`` means ``capture()`` before
      ``setup()`` is a programming error (MQTT-SN needs its topic
      registered); connectionless transports set ``False``.  It also
      marks a transport that holds a session, which a best-effort
      client probes with :meth:`reconnect` after a failed delivery.
    """

    #: registry name of this transport (diagnostics)
    name: str = "abstract"
    #: True: capture() waits for each send on the workflow's critical path
    blocking: bool = False
    #: the exception a failed delivery raises (or fails its event with)
    delivery_error: type = Exception
    #: True: the client must run setup() before the first capture()
    requires_setup: bool = True

    def connect(self):
        """Generator: establish the transport session (idempotence is
        handled by the façade — this is called at most once)."""
        return None
        yield  # pragma: no cover - generator shape

    def register(self, topic: str):
        """Generator: announce ``topic``; returns a transport handle
        (topic id, path, ...) or ``None``."""
        return None
        yield  # pragma: no cover - generator shape

    def send(self, payload: bytes):
        """Ship one opaque payload: return its completion event or, if
        ``blocking``, run as a generator until the payload is delivered.

        This is the transport's **ack hook**: the event must *succeed*
        (the generator return) only once the transport's delivery
        contract for this payload is fulfilled (QoS 2: PUBCOMP; CoAP CON:
        ACK; HTTP: 2xx response) and *fail* (the generator raise) when
        the contract is exhausted (retries spent, server missing).  A
        non-durable façade swallows the failure — capture loss must
        never crash the instrumented workflow; a durable façade keeps
        the journaled entry unacknowledged and replays it after
        :meth:`reconnect`.
        """
        raise NotImplementedError

    def reconnect(self, topic: str):
        """Generator: re-establish the session after a delivery failure.

        Called by the client's reconnect state machine between backoff
        delays: a durable client's after each delivery failure, a
        best-effort client's once per failure on a transport with
        ``requires_setup``.  It may raise (the uplink is still down), in
        which case a durable client backs off and retries and a
        best-effort one resumes sending.  The default
        re-runs the connect/register handshake and returns the fresh
        topic handle; connectionless transports inherit this as a no-op
        probe (their first replayed ``send()`` is the real probe).
        """
        yield from self.connect()
        handle = yield from self.register(topic)
        return handle

    def disconnect(self) -> None:
        """Tear down the session (fire and forget)."""

    def describe(self) -> str:
        mode = "blocking" if self.blocking else "async"
        return f"{self.name} ({mode})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
