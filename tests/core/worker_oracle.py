"""The translator worker as a supervised process, as it was before its
inbox consumer became a ``Mailbox.on_item`` callback.

``test_worker_equivalence`` keeps that model as its reference.  The
worker ran a ``translator-N`` process: it waited on the inbox's ``get``
event, charged the batch with the generator ``Cpu.run``, ran the
backend's old generator contract ``ingest_batch(batch)`` and, under a
supervisor loop, requeued its in-flight work when an ``Interrupt`` or a
backend error escaped.  :class:`EventMailbox` is the mailbox with the
event form it had (``get``, ``cancel``).
"""

from repro.core.server import _TranslatorWorker
from repro.simkernel import Event, Mailbox


class EventMailbox(Mailbox):
    """``Mailbox`` plus the ``get`` event and ``cancel`` it had."""

    def put_nowait(self, item, tail=False):
        if self.closed:
            return
        waiter = self._waiter
        if waiter is None:
            self.items.append(item)
            return
        self._waiter = None
        if isinstance(waiter, Event):
            waiter.succeed(item)
        elif tail and self.env.zero_delay_is_next():
            waiter(item)
        else:
            self.env.call_later(0.0, self._wake, waiter, item)

    def get(self):
        if self.closed or self._waiter is not None:
            self._refuse_waiter()
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._waiter = event
        return event

    def cancel(self, event):
        if self._waiter is event:
            self._waiter = None


def _callable_ingest_batch(fn, batch):
    """The old ``CallableBackend.ingest_batch(batch)``: deliver inline and
    return no events; a failing group's error says how many groups
    before it were delivered."""
    for done, translated in enumerate(batch):
        try:
            fn(translated)
        except Exception as exc:
            exc.delivered = done
            raise
    return ()


class ProcessTranslatorWorker(_TranslatorWorker):
    """``_TranslatorWorker`` with the supervised ``translator-N`` process."""

    def __init__(self, server, index, max_batch):
        super().__init__(server, index, max_batch)
        self._inbox = EventMailbox(self.env)
        self._pending_get = None
        self._process = self.env.process(
            self._supervised_loop(), name=f"translator-{index}"
        )

    def _await_batch(self):
        pass  # the process takes the batches

    def crash(self, cause=None):
        self._process.interrupt(cause if cause is not None else "injected crash")

    def retire(self):
        self._retired = True
        process = self._process
        if process is not None and process.is_alive:
            process.defused = True
            process.interrupt("retired")
        self._recover_inflight()
        if self._connected:
            self.client.disconnect()
            self._connected = False

    def _supervised_loop(self):
        attempt = 0
        while True:
            try:
                yield from self._work_loop()
            except Exception as exc:
                if self._retired:
                    return
                self.env.metrics.event("crash-worker", worker=self.index)
                self.last_failure = exc
                self._recover_inflight()
                delay = self._restart_delay(attempt)
                attempt += 1
                if self._batches_completed:
                    attempt = 1
                    self._batches_completed = 0
                while True:
                    try:
                        yield self.env.timeout(delay)
                        break
                    except Exception as exc:
                        if self._retired:
                            return
                        self.env.metrics.event("crash-worker", worker=self.index)
                        self.last_failure = exc
                self.env.metrics.event("restart-worker", worker=self.index)

    def _recover_inflight(self):
        pending = self._pending_get
        self._pending_get = None
        if pending is not None:
            if pending.triggered:
                self._inflight.insert(0, pending.value)
            else:
                self._inbox.cancel(pending)
        if self._inflight:
            self._requeue = self._inflight + self._requeue
            self._inflight = []

    def _work_loop(self):
        server = self.server
        self._inflight = []
        while True:
            if self._requeue:
                batch = self._requeue[: self.max_batch]
                del self._requeue[: len(batch)]
            else:
                self._pending_get = self._inbox.get()
                first = yield self._pending_get
                self._pending_get = None
                batch = [first]
                if self.max_batch > 1:
                    batch.extend(self._inbox.drain(self.max_batch - 1))
            self._inflight = batch
            front = server.front
            costs = server.costs
            work = 0.0
            admitted = []
            sources = []
            keys = set()
            for item in batch:
                entry = front.admit(item[1], keys)
                if entry is not None:
                    keys.add(entry[0])
                    work += costs.translate_per_message_s
                    if len(entry[1]) > 1:
                        work += costs.translate_group_fixed_s
                    admitted.append(entry)
                    sources.append(item)
            if not admitted:
                self._inflight = []
                continue
            device = server.host.device
            if device is not None:
                yield from device.cpu.run(io_busy_s=work, tag="translator")
            else:
                yield self.env.timeout(work)
            try:
                yield from _callable_ingest_batch(
                    server.backend.fn, [t for _, _, t in admitted])
            except Exception as exc:
                front.failures.record()
                done = getattr(exc, "delivered", 0)
                front.accepted(admitted[:done])
                self._inflight = sources[done:]
                raise
            front.accepted(admitted)
            self._inflight = []
            self._batches_completed += 1
