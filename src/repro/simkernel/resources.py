"""Shared-resource primitives built on the event kernel.

Two primitives, mirroring what network/device models need:

* :class:`Resource` — a FIFO semaphore with ``capacity`` slots (CPU
  cores, server worker pools).
* :class:`Mailbox` — the one FIFO hand-off: an unbounded buffer of items
  and one waiter slot (socket receive buffers, a TCP listener's
  backlog, the capture sender queue, translator and CoAP inboxes), fed
  by :meth:`Mailbox.put_nowait` and emptied by :meth:`Mailbox.get`,
  :meth:`Mailbox.on_item` and :meth:`Mailbox.drain`.

One event only where someone waits: an event exists to resume a waiter
later, so an operation whose outcome is already decided when it is
called schedules none.  :meth:`Resource.request` on a free slot returns
a request already granted (yielding it resumes at once; only a queued
request is granted by an event), :meth:`Mailbox.put_nowait` hands an
item straight to the waiter, a ``get`` on a non-empty mailbox is served
on the spot, and a wait nobody yields on is a timer
(:meth:`~repro.simkernel.core.Environment.call_later`), not a process.
Each shortcut decides exactly what the event path would have decided in
the same instant, so simultaneous events keep their order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .events import Event

__all__ = ["Mailbox", "Request", "Resource"]


class Request(Event):
    """Request event for one slot of a :class:`Resource`.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "usage_since")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.usage_since: Optional[float] = None
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (or abandon the queue position)."""
        self.resource._do_cancel(self)


class Resource:
    """Semaphore-style resource with ``capacity`` identical slots."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    # -- internal ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            # granted on the spot: nobody waits yet, so the request is
            # processed in place instead of scheduling a grant event
            self.users.append(request)
            request.usage_since = self.env.now
            request._value = None
            request.callbacks = None
        else:
            self.queue.append(request)

    def _do_cancel(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._wake_next()
        elif request in self.queue:
            self.queue.remove(request)

    def _wake_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.usage_since = self.env.now
            request.succeed()


class Mailbox:
    """Unbounded FIFO hand-off: one buffer of :attr:`items` and one
    waiter slot.

    The waiter is the event of a :meth:`get` or a one-shot callback
    registered with :meth:`on_item`; a second waiter raises.  An item goes
    to the waiter if there is one and is buffered otherwise; a waiter
    registered on a non-empty buffer takes the oldest item (an event
    served on the spot, a callback on a zero-delay timer).  After
    :meth:`close` no callback runs, and buffered and later items are
    dropped.
    """

    def __init__(self, env):
        self.env = env
        self.items: deque = deque()
        self._waiter = None
        self.closed = False

    def put_nowait(self, item: Any, tail: bool = False) -> None:
        """Hand ``item`` to the waiter, or buffer it; creates no event of
        its own.

        An event waiter is succeeded with ``item``.  ``tail`` says the
        caller is in tail position (see
        :meth:`~repro.simkernel.Environment.zero_delay_is_next`): a
        callback waiter then runs in place when nothing else is due now.
        A caller with more work after it in the same step passes False,
        and the callback always runs on a zero-delay timer.
        """
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

    def get(self) -> Event:
        """Event yielding the oldest item; blocks while the buffer is
        empty.  Cancel an abandoned one with :meth:`cancel`."""
        if self.closed or self._waiter is not None:
            self._refuse_waiter()
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._waiter = event
        return event

    def on_item(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(item)`` once, for the next item.

        The callback form of :meth:`get`: a consumer re-registers after
        handling each item.  An item already buffered is handed over on
        a zero-delay timer, where a :meth:`get` on a non-empty buffer
        schedules its wake.
        """
        if self.closed or self._waiter is not None:
            self._refuse_waiter()
        if self.items:
            self.env.call_later(0.0, self._wake, fn, self.items.popleft())
        else:
            self._waiter = fn

    def cancel(self, event: Event) -> None:
        """Withdraw ``event``, the :meth:`get` of a consumer that stopped
        waiting, so the next item is buffered for a live one; a no-op
        when ``event`` is not the waiter."""
        if self._waiter is event:
            self._waiter = None

    def drain(self, limit: Optional[int] = None) -> list:
        """Items already buffered, oldest first, without waiting.

        Returns at most ``limit`` items (all when None), possibly none.
        The batch companion of :meth:`get` and :meth:`on_item`: a
        consumer woken by one item takes whatever else queued up behind
        it in one go.
        """
        items = self.items
        if not items:
            return []
        if limit is None or limit >= len(items):
            drained = list(items)
            items.clear()
            return drained
        return [items.popleft() for _ in range(limit)]

    @property
    def pending(self) -> int:
        """Items waiting in the buffer."""
        return len(self.items)

    def close(self) -> None:
        """Stop handing off: drop the waiter and every buffered item."""
        self.closed = True
        self._waiter = None
        self.items.clear()

    def _refuse_waiter(self) -> None:
        if self.closed:
            raise RuntimeError("mailbox is closed")
        raise RuntimeError("mailbox already has a waiter")

    def _wake(self, fn: Callable[[Any], None], item: Any) -> None:
        if not self.closed:
            fn(item)
