"""The process-plus-``Store`` hand-off the receive and link oracles model.

Before socket callbacks and timer links, a datagram or a packet went
into a ``Store`` and a generator process blocked on ``Store.get()`` took
it out.  ``test_recv_equivalence`` and ``test_link_equivalence`` keep
that model as their reference, so this is the store as it was: an
unbounded FIFO whose ``get`` is an event served on the spot from a
non-empty store, or handed the next ``put_nowait`` item by
``Event.succeed``, waiting getters served in FIFO order.
"""

from repro.simkernel import Event


class _StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        if store.items:
            self.succeed(store.items.pop(0))
        else:
            store._get_waiters.append(self)


class Store:
    """Unbounded FIFO queue with ``put_nowait``, ``get`` and
    ``drain_pending``."""

    def __init__(self, env):
        self.env = env
        self.items: list = []
        self._get_waiters: list = []

    def put_nowait(self, item) -> None:
        if self._get_waiters:
            getter = self._get_waiters.pop(0)
            getter.succeed(item)
        else:
            self.items.append(item)

    def get(self) -> _StoreGet:
        return _StoreGet(self)

    def drain_pending(self, limit=None) -> list:
        drained = self.items[:limit]
        del self.items[:limit]
        return drained
