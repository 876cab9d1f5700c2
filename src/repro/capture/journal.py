"""Durable edge-side capture journal: append-only, hash-chained, signed.

The disconnected-edge scenarios need capture that survives client
crashes and long uplink partitions, so a ``durable=True`` capture client
writes every outbound payload through this journal *before* handing it
to the transport.  The store is an append-only SQLite table in WAL mode
with ``synchronous=NORMAL`` (the same idiom real edge capture daemons
use), keyed by a **monotonic per-client sequence number** that doubles
as the server-side dedup key — see :mod:`repro.capture.envelope`.

Commit structure: an append is one autocommitted ``INSERT``, an ack is
one transaction (or a single ``UPDATE``, see below).  A commit appends
frames to the WAL file without an fsync; the WAL is fsynced when it is
checkpointed into the database (SQLite's automatic checkpoints and the
one at :meth:`CaptureJournal.close`).  A process crash therefore loses
no committed entry, and a power loss can roll back the newest commits
but never tears one.  Every commit writes its dirty pages whole to the
WAL, so a new journal uses 1 KiB pages: it only ever holds the unacked
window, and small pages keep both the commits and the close checkpoint
cheap.

Tamper evidence (HyperProv-style): every entry carries
``sha256(prev_hash || seq || payload)``, chaining it to its predecessor;
:meth:`CaptureJournal.verify_chain` recomputes the chain and raises
:class:`TamperError` on any edited, reordered or missing entry.
Optionally each chained hash is signed — :class:`HmacRecordSigner`
(standard library, shared key) or :class:`EcdsaRecordSigner` (P-256,
gated on the ``cryptography`` package being installed).

Delivery acknowledgements truncate the journal: the contiguous acked
prefix is deleted, with its last ``(seq, hash)`` retained as the
*anchor* so the chain of the surviving suffix stays verifiable.  The
journal keeps one invariant between acks: row ``anchor+1`` is unacked or
absent.  So :meth:`CaptureJournal.ack` of ``anchor+1`` (the in-order
case) deletes that row plus the contiguous acked rows after it and moves
the anchor, all in one ``BEGIN … COMMIT``; any other ack cannot truncate
and only flags its row ``acked``.  An ack interrupted by a crash or an
error rolls back whole: its row stays unacked, the anchor stays put, and
the next incarnation replays the entry (the server drops the duplicate).
The anchor never moves past a missing row: a gap is tamper evidence.
Entries never acked — the client crashed, or the uplink never healed —
are returned by :meth:`CaptureJournal.unacked` and replayed on the next
``setup()``/reconnect.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import re
import sqlite3
from contextlib import contextmanager
from typing import List, Optional, Tuple

__all__ = [
    "CaptureJournal",
    "JournalError",
    "TamperError",
    "HmacRecordSigner",
    "EcdsaRecordSigner",
    "chain_hash",
    "journal_path_for",
    "GENESIS_HASH",
    "DEFAULT_JOURNAL_DIR",
]

#: hash-chain anchor of an empty journal (no predecessor)
GENESIS_HASH = "0" * 64

#: where durable clients put their journals unless told otherwise
DEFAULT_JOURNAL_DIR = ".provlight-journal"


class JournalError(RuntimeError):
    """The journal could not be opened or operated on."""


class TamperError(JournalError):
    """Chain verification failed: an entry was edited, forged or lost."""


def chain_hash(prev_hash: str, seq: int, payload: bytes) -> str:
    """The chained digest of one entry: binds payload, position and
    predecessor, so any historical edit breaks every later hash."""
    h = hashlib.sha256()
    h.update(prev_hash.encode("ascii"))
    h.update(seq.to_bytes(8, "little"))
    h.update(payload)
    return h.hexdigest()


def journal_path_for(journal_dir: str, client_id: str) -> str:
    """The journal file for ``client_id`` under ``journal_dir`` (the id
    is sanitised — topic-style ids contain ``/``)."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", client_id) or "client"
    return os.path.join(journal_dir, f"{safe}.journal.db")


class HmacRecordSigner:
    """Shared-key record signing (HMAC-SHA256, standard library only)."""

    algorithm = "hmac-sha256"

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray)) or len(key) < 16:
            raise ValueError("signing key must be at least 16 bytes")
        self._key = bytes(key)

    def sign(self, data: bytes) -> bytes:
        return hmac.new(self._key, data, hashlib.sha256).digest()

    def verify(self, data: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(data), bytes(signature))


class EcdsaRecordSigner:
    """Asymmetric record signing (ECDSA P-256 / SHA-256).

    Needs the ``cryptography`` package; :meth:`available` reports whether
    it is importable so callers can fall back to
    :class:`HmacRecordSigner` on minimal containers.  A verify-only
    instance (public key, no private key) supports audit hosts that must
    check signatures without being able to forge them.
    """

    algorithm = "ecdsa-p256-sha256"

    def __init__(self, private_key=None, public_key=None):
        if private_key is None and public_key is None:
            raise ValueError("need a private key (sign) or public key (verify)")
        self._private = private_key
        self._public = public_key if public_key is not None else private_key.public_key()

    @staticmethod
    def available() -> bool:
        try:
            import cryptography  # noqa: F401
        except ImportError:
            return False
        return True

    @classmethod
    def generate(cls) -> "EcdsaRecordSigner":
        if not cls.available():
            raise JournalError(
                "EcdsaRecordSigner needs the 'cryptography' package; "
                "use HmacRecordSigner on hosts without it"
            )
        from cryptography.hazmat.primitives.asymmetric import ec

        return cls(private_key=ec.generate_private_key(ec.SECP256R1()))

    def sign(self, data: bytes) -> bytes:
        if self._private is None:
            raise JournalError("verify-only signer cannot sign")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import ec

        return self._private.sign(data, ec.ECDSA(hashes.SHA256()))

    def verify(self, data: bytes, signature: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import ec

        try:
            self._public.verify(bytes(signature), data, ec.ECDSA(hashes.SHA256()))
        except InvalidSignature:
            return False
        return True


class CaptureJournal:
    """Append-only WAL store of not-yet-acknowledged capture payloads.

    One journal belongs to one client identity; reopening the same path
    with a different ``client_id`` is refused (two clients sharing a
    sequence space would break the dedup contract).
    """

    def __init__(self, path: str, client_id: str, signer=None):
        if not client_id:
            raise JournalError("journal needs a non-empty client_id")
        self.path = path
        self.client_id = client_id
        self.signer = signer
        directory = os.path.dirname(path)
        if directory and path != ":memory:":
            os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(path, isolation_level=None)
        try:
            # applies to a new file only; an existing one keeps its pages
            self._conn.execute("PRAGMA page_size=1024")
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            with self._transaction():
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS journal ("
                    " seq INTEGER PRIMARY KEY,"
                    " ts REAL NOT NULL,"
                    " payload BLOB NOT NULL,"
                    " hash TEXT NOT NULL,"
                    " sig BLOB,"
                    " acked INTEGER NOT NULL DEFAULT 0)"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta ("
                    " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                self._load_state()
        except BaseException:
            self._conn.close()
            raise

    @contextmanager
    def _transaction(self):
        """One ``BEGIN … COMMIT``; any error rolls the whole of it back."""
        conn = self._conn
        conn.execute("BEGIN")
        try:
            yield
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    def _load_state(self) -> None:
        meta = dict(self._conn.execute("SELECT key, value FROM meta"))
        owner = meta.get("client_id")
        if owner is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('client_id', ?)",
                (self.client_id,),
            )
        elif owner != self.client_id:
            raise JournalError(
                f"journal {self.path!r} belongs to client {owner!r}, "
                f"not {self.client_id!r}"
            )
        self._anchor_seq = int(meta.get("anchor_seq", 0))
        self._anchor_hash = meta.get("anchor_hash", GENESIS_HASH)
        # a journal written before acks were transactional can hold an
        # acked row at anchor+1; truncate it so the invariant holds
        row = self._conn.execute(
            "SELECT acked FROM journal WHERE seq=?", (self._anchor_seq + 1,)
        ).fetchone()
        if row is not None and row[0]:
            self._anchor_seq, self._anchor_hash = self._truncate_from(
                self._anchor_seq + 1
            )
        # the head is derived, not stored: one INSERT per append, and a
        # crash between statements can never desynchronise head and rows
        row = self._conn.execute(
            "SELECT seq, hash FROM journal ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        if row is not None:
            self._head_seq, self._head_hash = int(row[0]), row[1]
        else:
            self._head_seq, self._head_hash = self._anchor_seq, self._anchor_hash

    # ------------------------------------------------------------------ API
    @property
    def head(self) -> Tuple[int, str]:
        """``(seq, hash)`` of the newest entry (anchor when empty)."""
        return self._head_seq, self._head_hash

    @property
    def anchor(self) -> Tuple[int, str]:
        """``(seq, hash)`` of the last truncated (acked) entry."""
        return self._anchor_seq, self._anchor_hash

    def append(self, payload: bytes, ts: float = 0.0) -> int:
        """Append ``payload``; returns its sequence number."""
        seq = self._head_seq + 1
        digest = chain_hash(self._head_hash, seq, payload)
        sig = self.signer.sign(digest.encode("ascii")) if self.signer else None
        self._conn.execute(
            "INSERT INTO journal (seq, ts, payload, hash, sig, acked)"
            " VALUES (?, ?, ?, ?, ?, 0)",
            (seq, ts, sqlite3.Binary(payload), digest, sig),
        )
        self._head_seq, self._head_hash = seq, digest
        return seq

    def ack(self, seq: int) -> None:
        """Mark ``seq`` delivered; truncate the contiguous acked prefix.

        Row ``anchor+1`` is never acked between calls, so only an ack of
        ``anchor+1`` can truncate: it runs as one transaction.  A later
        seq is flagged with one ``UPDATE``; an already truncated seq is
        a no-op.
        """
        first = self._anchor_seq + 1
        if seq == first:
            with self._transaction():
                anchor = self._truncate_from(first)
            self._anchor_seq, self._anchor_hash = anchor
        elif seq > first:
            self._conn.execute("UPDATE journal SET acked=1 WHERE seq=?", (seq,))

    def _truncate_from(self, first: int) -> Tuple[int, str]:
        """Inside a transaction: delete row ``first`` (acked, or being
        acked) and the contiguous acked rows after it, and persist the
        last one as the anchor.  Returns the anchor, unchanged when row
        ``first`` is missing — the anchor never skips a gap."""
        anchor = self._anchor_seq, self._anchor_hash
        cursor = self._conn.execute(
            "SELECT seq, hash, acked FROM journal WHERE seq>=? ORDER BY seq",
            (first,),
        )
        for seq, digest, acked in cursor:
            if seq != anchor[0] + 1 or not (acked or seq == first):
                break
            anchor = seq, digest
        cursor.close()
        if anchor[0] >= first:
            self._conn.execute(
                "DELETE FROM journal WHERE seq BETWEEN ? AND ?", (first, anchor[0])
            )
            self._conn.execute(
                "INSERT INTO meta (key, value)"
                " VALUES ('anchor_seq', ?), ('anchor_hash', ?)"
                " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (str(anchor[0]), anchor[1]),
            )
        return anchor

    def unacked(self) -> List[Tuple[int, bytes]]:
        """Entries awaiting delivery, oldest first — the replay set."""
        return [
            (int(seq), bytes(payload))
            for seq, payload in self._conn.execute(
                "SELECT seq, payload FROM journal WHERE acked=0 ORDER BY seq"
            )
        ]

    @property
    def pending(self) -> int:
        """Entries not yet acknowledged."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM journal WHERE acked=0"
        ).fetchone()
        return int(row[0])

    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM journal").fetchone()
        return int(row[0])

    def verify_chain(self, verifier=None) -> int:
        """Recompute the hash chain (and signatures, when a signer is
        known); returns the number of verified entries.

        Raises :class:`TamperError` on any payload edit, reordering,
        gap, or signature mismatch.
        """
        verifier = verifier if verifier is not None else self.signer
        prev_seq, prev_hash = self._anchor_seq, self._anchor_hash
        verified = 0
        for seq, payload, digest, sig in self._conn.execute(
            "SELECT seq, payload, hash, sig FROM journal ORDER BY seq"
        ):
            seq = int(seq)
            if seq != prev_seq + 1:
                raise TamperError(
                    f"sequence gap: expected {prev_seq + 1}, found {seq}"
                )
            expected = chain_hash(prev_hash, seq, bytes(payload))
            if expected != digest:
                raise TamperError(f"hash mismatch at seq {seq}")
            if verifier is not None:
                if sig is None:
                    raise TamperError(f"missing signature at seq {seq}")
                if not verifier.verify(digest.encode("ascii"), sig):
                    raise TamperError(f"signature mismatch at seq {seq}")
            prev_seq, prev_hash = seq, digest
            verified += 1
        return verified

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:
        return (
            f"<CaptureJournal {self.client_id!r} head={self._head_seq} "
            f"pending={self.pending}>"
        )
