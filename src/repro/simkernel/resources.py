"""Shared-resource primitives built on the event kernel.

Two families, mirroring what network/device models need:

* :class:`Resource` — a FIFO semaphore with ``capacity`` slots (CPU
  cores, server worker pools).
* :class:`Store` — an unbounded FIFO queue of Python objects (packet
  queues, mailboxes), fed by :meth:`Store.put_nowait` and emptied by
  :meth:`Store.get` and :meth:`Store.drain_pending`.

One event only where someone waits: an event exists to resume a waiter
later, so an operation whose outcome is already decided when it is
called schedules none.  :meth:`Resource.request` on a free slot returns
a request already granted (yielding it resumes at once; only a queued
request is granted by an event), :meth:`Store.put_nowait` hands an item
straight to the first waiting getter, a ``get`` on a non-empty store is
served on the spot, and a wait nobody yields on is a timer
(:meth:`~repro.simkernel.core.Environment.call_later`), not a process.
Each shortcut decides exactly what the event path would have decided in
the same instant, so simultaneous events keep their order.
"""

from __future__ import annotations

from typing import Any, Optional

from .events import Event

__all__ = ["Request", "Resource", "Store"]


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


class _StoreGet(Event):
    """Get event of a :class:`Store`: served on the spot from a non-empty
    store, otherwise queued until :meth:`Store.put_nowait` hands it an
    item."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store
        if store.items:
            self.succeed(store.items.pop(0))
        else:
            store._get_waiters.append(self)

    def cancel(self) -> None:
        """Abandon the wait, so the next item goes to a live getter."""
        waiters = self.store._get_waiters
        if self in waiters:
            waiters.remove(self)


class Store:
    """Unbounded FIFO queue of arbitrary items.

    A getter waits only on an empty store: :meth:`put_nowait` gives an
    item to the first waiting getter and queues it only when nobody
    waits, and a :meth:`get` on a non-empty store is served at once.
    """

    def __init__(self, env):
        self.env = env
        self.items: list = []
        self._get_waiters: list[_StoreGet] = []

    def put_nowait(self, item: Any) -> None:
        """Queue ``item``, or hand it to the first waiting getter; creates
        no event of its own."""
        if self._get_waiters:
            getter = self._get_waiters.pop(0)
            getter.succeed(item)
        else:
            self.items.append(item)

    def get(self) -> _StoreGet:
        """Pop the oldest item; blocks (as an event) while empty."""
        return _StoreGet(self)

    def drain_pending(self, limit: Optional[int] = None) -> list:
        """Pop up to ``limit`` immediately-available items without waiting.

        Returns possibly-empty list; never blocks.  This is the batch
        companion to :meth:`get`: a consumer wakes on one ``get`` and
        drains whatever else queued up in the same instant.
        """
        if not self.items:
            return []
        if limit is None or limit >= len(self.items):
            drained, self.items = self.items, []
        else:
            drained = self.items[:limit]
            del self.items[:limit]
        return drained
