"""Shared-resource primitives built on the event kernel.

Three families, mirroring what network/device models need:

* :class:`Resource` — a semaphore with ``capacity`` slots (CPU cores,
  server worker pools).  FIFO; :class:`PriorityResource` adds priorities.
* :class:`Container` — a continuous quantity (battery charge, buffer
  bytes) with ``put``/``get`` of amounts.
* :class:`Store` — a FIFO queue of Python objects (packet queues,
  mailboxes); :class:`FilterStore` allows selective gets.

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

import heapq
from typing import Any, Callable, Optional

from .events import Event

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Container",
    "Store",
    "FilterStore",
    "PriorityItem",
    "PriorityStore",
]


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


class Release(Event):
    """Explicit release event (triggers immediately)."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.request = request
        resource._do_cancel(request)
        self.succeed()


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

    def release(self, request: Request) -> Release:
        return Release(self, request)

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


class PriorityRequest(Request):
    """Request with a priority (lower value = served earlier)."""

    __slots__ = ("priority", "time", "key")

    def __init__(self, resource: "PriorityResource", priority: int = 0):
        self.priority = priority
        self.time = resource.env.now
        self.key = (priority, self.time)
        super().__init__(resource)


class PriorityResource(Resource):
    """Resource whose waiting queue is ordered by request priority."""

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        super()._do_request(request)
        if request.callbacks is not None:  # queued
            self.queue.sort(key=lambda r: r.key)  # type: ignore[attr-defined]


class _ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be > 0")
        super().__init__(container.env)
        self.amount = amount
        container._put_waiters.append(self)
        container._trigger()


class _ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be > 0")
        super().__init__(container.env)
        self.amount = amount
        container._get_waiters.append(self)
        container._trigger()


class Container:
    """A homogeneous bulk quantity between 0 and ``capacity``."""

    def __init__(self, env, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_waiters: list[_ContainerPut] = []
        self._get_waiters: list[_ContainerGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> _ContainerPut:
        return _ContainerPut(self, amount)

    def get(self, amount: float) -> _ContainerGet:
        return _ContainerGet(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self._capacity:
                    self._put_waiters.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if self._level >= get.amount:
                    self._get_waiters.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progressed = True


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class _StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        if store.items and not store._get_waiters and store._do_get(self):
            # served on the spot, as the sweep below would serve it; the
            # freed capacity lets a blocked putter in after this getter
            if store._put_waiters:
                store._trigger()
            return
        store._get_waiters.append(self)
        store._trigger()


class _FilterStoreGet(_StoreGet):
    __slots__ = ("filter",)

    def __init__(self, store: "FilterStore", filter: Callable[[Any], bool]):
        self.filter = filter
        super().__init__(store)


class Store:
    """FIFO queue of arbitrary items with optional bounded capacity."""

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.items: list = []
        self._put_waiters: list[_StorePut] = []
        self._get_waiters: list[_StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, item: Any) -> _StorePut:
        """Queue ``item``; blocks (as an event) while the store is full."""
        return _StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Queue ``item`` at once, without creating a put event.

        Waiting getters wake exactly as after :meth:`put` (the first one
        takes the item directly); only the put event itself, which a
        fire-and-forget caller never yields, is skipped.  Raises
        ``RuntimeError`` when the store is at capacity (a bounded store's
        caller must yield :meth:`put` instead).
        """
        if len(self.items) >= self._capacity:
            raise RuntimeError(f"store full at capacity {self._capacity}")
        if self._get_waiters:
            self._hand_off(item)
        else:
            self._push(item)

    def get(self) -> _StoreGet:
        """Pop the oldest item; blocks (as an event) while empty."""
        return _StoreGet(self)

    def drain_pending(self, limit: Optional[int] = None) -> list:
        """Pop up to ``limit`` immediately-available items without waiting.

        Returns possibly-empty list; never blocks.  This is the batch
        companion to :meth:`get`: a consumer wakes on one ``get`` and
        drains whatever else queued up in the same instant.  Draining
        frees capacity, so blocked putters are re-triggered.
        """
        if not self.items:
            return []
        if limit is None or limit >= len(self.items):
            drained, self.items = self.items, []
        else:
            drained = self.items[:limit]
            del self.items[:limit]
        if self._put_waiters:
            self._trigger()
        return drained

    def _push(self, item: Any) -> None:
        self.items.append(item)

    def _hand_off(self, item: Any) -> None:
        """Give ``item`` to the waiting getters.  A getter waits only on
        an empty store, so the first one takes it."""
        getter = self._get_waiters.pop(0)
        getter.succeed(item)

    def _do_put(self, event: _StorePut) -> bool:
        if len(self.items) < self._capacity:
            self._push(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: _StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.pop(0))
            return True
        return False

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._put_waiters:
                if self._do_put(self._put_waiters[0]):
                    self._put_waiters.pop(0)
                    progressed = True
                else:
                    break
            idx = 0
            while idx < len(self._get_waiters):
                if self._do_get(self._get_waiters[idx]):
                    self._get_waiters.pop(idx)
                    progressed = True
                else:
                    idx += 1


class FilterStore(Store):
    """Store whose ``get`` takes a predicate selecting an item."""

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> _FilterStoreGet:  # type: ignore[override]
        return _FilterStoreGet(self, filter)

    def drain_pending(  # type: ignore[override]
        self,
        limit: Optional[int] = None,
        filter: Callable[[Any], bool] = lambda item: True,
    ) -> list:
        """Pop up to ``limit`` items matching ``filter`` without waiting.

        Honours the selection contract: items the predicate rejects stay
        queued (the base class would pop FIFO regardless of filters).
        """
        drained: list = []
        index = 0
        while index < len(self.items) and (limit is None or len(drained) < limit):
            if filter(self.items[index]):
                drained.append(self.items.pop(index))
            else:
                index += 1
        if drained and self._put_waiters:
            self._trigger()
        return drained

    def _hand_off(self, item: Any) -> None:
        # the first getter's predicate may reject the item
        self._push(item)
        self._trigger()

    def _do_get(self, event: _StoreGet) -> bool:
        predicate = getattr(event, "filter", lambda item: True)
        for i, item in enumerate(self.items):
            if predicate(item):
                self.items.pop(i)
                event.succeed(item)
                return True
        return False


class PriorityItem:
    """Wraps an item with an orderable priority for :class:`PriorityStore`."""

    __slots__ = ("priority", "item")

    def __init__(self, priority: Any, item: Any):
        self.priority = priority
        self.item = item

    def __lt__(self, other: "PriorityItem") -> bool:
        return self.priority < other.priority

    def __repr__(self) -> str:
        return f"PriorityItem({self.priority!r}, {self.item!r})"


class PriorityStore(Store):
    """Store that always yields the smallest item (heap ordered)."""

    def _push(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _do_get(self, event: _StoreGet) -> bool:
        if self.items:
            event.succeed(heapq.heappop(self.items))
            return True
        return False

    def drain_pending(self, limit: Optional[int] = None) -> list:
        """Pop up to ``limit`` items in priority order without waiting."""
        count = len(self.items) if limit is None else min(limit, len(self.items))
        drained = [heapq.heappop(self.items) for _ in range(count)]
        if drained and self._put_waiters:
            self._trigger()
        return drained
