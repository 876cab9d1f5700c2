"""The capture sender as a supervised process, as it was before it
became the queue's ``Mailbox.on_item`` callback.

``test_sender_equivalence`` keeps that model as its reference.  The
sender ran a ``capture-sender-<topic>`` process: it waited on the
queue's ``get`` event, parked on the pause gate while the reconnect
machine ran, shipped an entry with the old transport contract (``send``
returned a completion event it yielded on), and a supervisor loop
restarted it after a backoff when a transport bug escaped.  ``close()``
stopped it with a sentinel item.  The reconnect machine was one process
that replayed by yielding on those events too.
"""

from repro.capture.client import (
    STATE_CLOSED,
    STATE_CONNECTED,
    STATE_DISCONNECTED,
    STATE_RECONNECTING,
    CaptureClient,
    CaptureClosedError,
)

from ..core.worker_oracle import EventMailbox

#: queue sentinel that tells the sender loop to exit
_CLOSE = object()


class ProcessSenderClient(CaptureClient):
    """``CaptureClient`` with the supervised sender and recovery processes."""

    def __init__(self, device, server, topic, config=None):
        super().__init__(device, server, topic, config)
        self._queue = EventMailbox(self.env)
        self._recovery = None
        self._sender = self.env.process(
            self._sender_loop(), name=f"capture-sender-{self.topic}"
        )

    def close(self):
        if self._closed:
            return
        self._closed = True
        for item in self._queue.drain():
            if item is _CLOSE:
                continue
            _, nbytes, _ = item
            self.device.memory.free(nbytes, tag="capture-buffers")
            self._outstanding -= 1
        for _, nbytes, _ in self._replay:
            self.device.memory.free(nbytes, tag="capture-buffers")
            self._outstanding -= 1
        self._replay.clear()
        self._queue.put_nowait(_CLOSE)
        gate, self._pause_gate = self._pause_gate, None
        if gate is not None:
            gate.succeed()
        waiters, self._drain_waiters = self._drain_waiters, []
        for event in waiters:
            event.fail(CaptureClosedError("closed with messages outstanding"))
        self.transport.disconnect()
        if self.journal is not None and not self._journal_closed:
            self._journal_closed = True
            self.journal.close()
        self.device.memory.free(self.footprints.provlight_lib_bytes, tag="capture-static")
        self._set_state(STATE_CLOSED)

    def _sender_loop(self):
        while True:
            try:
                finished = yield from self._sender_body()
            except Exception as exc:
                self._sender_failure = exc
                item, self._sender_item = self._sender_item, None
                if item is not None:
                    wire, nbytes, seq = item
                    if self.journal is not None:
                        self._mark_failed(wire, nbytes, seq)
                    else:
                        self._complete(wire, nbytes, seq, delivered=False)
                yield self.env.timeout(self._backoff_delay(0))
                continue
            if finished:
                return

    def _sender_body(self):
        while True:
            item = yield self._queue.get()
            if item is _CLOSE:
                return True
            self._sender_item = item
            wire, nbytes, seq = item
            while self._pause_gate is not None:
                yield self._pause_gate
            if self._closed:
                self._sender_item = None
                self._complete(wire, nbytes, seq, delivered=False)
                return True
            done = self.transport.send(wire)
            self.device.cpu.run_async(
                io_busy_s=self.costs.async_per_message_io_s, tag="capture"
            )
            delivered = True
            try:
                yield done
            except Exception:
                delivered = False
            self._sender_item = None
            if delivered:
                self._complete(wire, nbytes, seq)
            elif self.journal is None:
                self._complete(wire, nbytes, seq, delivered=False)
                if self.transport.requires_setup:
                    self._start_recovery(probe_once=True)
            else:
                self._mark_failed(wire, nbytes, seq)

    def _start_recovery(self, established=False, probe_once=False):
        if self._closed or (self._recovery is not None and self._recovery.is_alive):
            return
        self._set_state(STATE_RECONNECTING)
        if self._pause_gate is None:
            self._pause_gate = self.env.event()
        self._recovery = self.env.process(
            self._recovery_loop(established, probe_once),
            name=f"capture-recovery-{self.topic}",
        )

    def _recovery_loop(self, established, probe_once):
        attempt = 0
        while not self._closed:
            if not established:
                yield self.env.timeout(self._backoff_delay(attempt))
                attempt += 1
                if self._closed:
                    return
                try:
                    self.handle = yield from self.transport.reconnect(self.topic)
                except Exception:
                    if probe_once:
                        self._end_recovery(STATE_DISCONNECTED)
                        return
                    continue
                self.env.metrics.event("reconnect", client=self.client_id)
            established = False
            while self._replay and not self._closed:
                wire, nbytes, seq = self._replay[0]
                try:
                    yield self.transport.send(wire)
                except self.transport.delivery_error:
                    break
                if self._closed:
                    return
                self._replay.pop(0)
                self.replayed.record()
                self._complete(wire, nbytes, seq, delivered=True)
            else:
                if not self._closed:
                    self._end_recovery(STATE_CONNECTED)
                return

    def _end_recovery(self, state):
        self._recovery = None
        gate, self._pause_gate = self._pause_gate, None
        if gate is not None:
            gate.succeed()
        self._set_state(state)
