"""Event forms over the program's callback APIs, for test processes.

Every consumer in the program is a callback (``Mailbox.on_item``,
``TcpListener.on_accept``, a transport's ``send(payload, on_done)``), so
a test written as a generator process waits on an event one of these
helpers triggers from the callback.
"""


def next_item(box):
    """Event succeeding with the next item of the ``Mailbox`` ``box``
    (for a UDP socket: its next ``(payload, source)`` datagram)."""
    event = box.env.event()
    box.on_item(event.succeed)
    return event


def next_connection(listener):
    """Event succeeding with the next connection ``listener`` accepts."""
    event = listener.host.env.event()
    listener.on_accept(event.succeed)
    return event


def outcome(env):
    """``(event, on_done)``: ``on_done(None)`` succeeds the event and
    ``on_done(exc)`` fails it with ``exc``."""
    event = env.event()

    def on_done(exc):
        if exc is None:
            event.succeed()
        else:
            event.fail(exc)

    return event, on_done


def ingest(env, backend, batch):
    """Generator: ``backend.ingest_batch(batch, on_done)``, then wait for
    ``on_done``; raises the error it reports."""
    done, on_done = outcome(env)
    backend.ingest_batch(batch, on_done)
    yield done
