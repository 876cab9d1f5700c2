"""Durable edge-side capture journal: append-only, hash-chained, signed.

A ``durable=True`` capture client writes every outbound payload here
*before* handing it to the transport, so capture survives client crashes
and uplink partitions.  The store is one append-only file per client, a
run of frames ``u32 len | u32 crc32 | u8 kind | body``: a *header*
(anchor seq, anchor hash, client id), then *append* (seq, ts, chain
hash, signature, payload) and *ack* (seq) frames.  The seq is monotonic
per client and doubles as the server-side dedup key
(:mod:`repro.capture.envelope`).  An append is one ``os.write``, an ack
one or none; ``close()`` fsyncs, the writes do not.  A failed or short
write is cut back and changes no state.  On open a torn final frame is
truncated away; a bad frame with a good one after it raises
:class:`TamperError`.

Each entry carries ``sha256(prev_hash || seq || payload)``, optionally
signed (:class:`HmacRecordSigner`, :class:`EcdsaRecordSigner`), and
:meth:`CaptureJournal.verify_chain` recomputes the chain from the stored
bytes (a CRC only catches torn writes: anyone can recompute it).  An ack
of ``anchor+1`` moves the anchor over the contiguous acked run, never
past a missing entry; any other ack flags its entry.  Memory holds only
``seq -> (hash, acked)`` of the window after the anchor.  A file over
:data:`COMPACT_BYTES` and more than half acked frames is rewritten
through a temp file, fsync and ``os.replace``.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import re
import struct
import zlib
from contextlib import suppress
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "CaptureJournal", "JournalError", "TamperError", "HmacRecordSigner",
    "EcdsaRecordSigner", "chain_hash", "journal_path_for", "GENESIS_HASH",
    "DEFAULT_JOURNAL_DIR", "COMPACT_BYTES",
]

#: hash-chain anchor of an empty journal (no predecessor)
GENESIS_HASH = "0" * 64

#: where durable clients put their journals unless told otherwise
DEFAULT_JOURNAL_DIR = ".provlight-journal"

#: a journal file over this size is compacted once most of it is acked
COMPACT_BYTES = 64 * 1024

#: frame head: body length, CRC-32 of kind and body, kind
_HEAD = struct.Struct("<IIB")
_HEADER, _APPEND, _ACK = 1, 2, 3
_KIND_CRC = {kind: zlib.crc32(bytes([kind])) for kind in (_HEADER, _APPEND, _ACK)}
#: header body: anchor seq, anchor hash; the client id (UTF-8) follows
_HEADER_BODY = struct.Struct("<Q32s")
#: append body: seq, ts, chain hash, signature length; the signature and
#: the payload follow.  An ack body is the seq alone.
_APPEND_BODY = struct.Struct("<Qd32sH")
_SEQ = struct.Struct("<Q")
_ACK_BYTES = _HEAD.size + _SEQ.size


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
    return os.path.join(journal_dir, f"{safe}.journal")


def _frame(kind: int, body: bytes) -> bytes:
    return _HEAD.pack(len(body), zlib.crc32(body, _KIND_CRC[kind]), kind) + body


def _frame_end(view: memoryview, offset: int) -> Optional[int]:
    """Where the frame at ``offset`` ends, if it is whole and its CRC holds."""
    if offset + _HEAD.size > len(view):
        return None
    length, crc, _kind = _HEAD.unpack_from(view, offset)
    end = offset + _HEAD.size + length
    if end > len(view) or zlib.crc32(view[offset + _HEAD.size - 1:end]) != crc:
        return None
    return end


def _frames(data: bytes) -> Iterator[Tuple[int, memoryview, int]]:
    """``(kind, body, end)`` of each whole frame of ``data``, stopping
    before a torn tail: a short or CRC-failing frame that no whole frame
    follows.  One that a whole frame follows raises :class:`TamperError`."""
    view = memoryview(data)
    offset = 0
    while offset < len(data):
        end = _frame_end(view, offset)
        if end is None:
            if any(_frame_end(view, at) for at in range(offset + 1, len(data))):
                raise TamperError(f"corrupt frame at offset {offset}")
            return
        yield data[offset + _HEAD.size - 1], view[offset + _HEAD.size:end], end
        offset = end


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
            raise JournalError("EcdsaRecordSigner needs the 'cryptography' package; "
                               "use HmacRecordSigner on hosts without it")
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
    """Append-only file of not-yet-acknowledged capture payloads.

    One journal belongs to one client identity: reopening it with another
    ``client_id`` is refused (two clients sharing a sequence space would
    break the dedup contract).  ``":memory:"`` is an unnamed file for tests.
    """

    def __init__(self, path: str, client_id: str, signer=None):
        if not client_id:
            raise JournalError("journal needs a non-empty client_id")
        self.path = path
        self.client_id = client_id
        self.signer = signer
        self._anchor_seq, self._anchor_hash = 0, GENESIS_HASH
        #: the window: seq -> [chain hash, acked, bytes of its frames]
        self._window: Dict[int, list] = {}
        #: bytes in the file, and those of frames at or below the anchor
        self._size = self._dead = 0
        if path == ":memory:":
            import tempfile
            self._file = tempfile.TemporaryFile(buffering=0)
        else:
            if os.path.exists(path + ".db"):
                raise JournalError(f"{path + '.db'!r} is a SQLite journal this "
                                   f"version cannot read; replay or remove it")
            if os.path.dirname(path):
                os.makedirs(os.path.dirname(path), exist_ok=True)
            with suppress(FileNotFoundError):  # a compaction a crash cut short
                os.unlink(path + ".tmp")
            self._file = open(path, "a+b", buffering=0)
        self._fd = self._file.fileno()
        try:
            self._replay()
        except BaseException:
            self._file.close()
            raise

    def _replay(self) -> None:
        """Rebuild anchor, window and head from the file's frames, and
        cut a torn tail off it."""
        data = os.pread(self._fd, os.fstat(self._fd).st_size, 0)
        head = None
        for kind, body, end in _frames(data):
            if self._size == 0:
                if kind != _HEADER:
                    raise TamperError(f"journal {self.path!r} has no header")
                seq, digest = _HEADER_BODY.unpack_from(body)
                self._anchor_seq, self._anchor_hash = seq, digest.hex()
                owner = bytes(body[_HEADER_BODY.size:]).decode("utf-8")
                if owner != self.client_id:
                    raise JournalError(f"journal {self.path!r} belongs to client "
                                       f"{owner!r}, not {self.client_id!r}")
            elif kind == _APPEND:
                seq, _ts, digest, _siglen = _APPEND_BODY.unpack_from(body)
                head = seq, digest.hex()
                self._window[seq] = [head[1], False, end - self._size]
            elif kind == _ACK:
                (seq,) = _SEQ.unpack_from(body)
                entry = self._window.get(seq)
                if entry is not None and not entry[1]:
                    self._settle(seq, entry)
            else:
                raise TamperError(f"unknown frame at {self._size} of {self.path!r}")
            self._size = end
        if self._size < len(data):
            if self._size == 0 and len(data) >= len(self._header_frame()):
                raise JournalError(f"{self.path!r} is not a capture journal")
            os.ftruncate(self._fd, self._size)
        if self._size == 0:
            self._write(self._header_frame())
        # the head is derived from the last append frame, never stored
        self._head_seq, self._head_hash = head or (self._anchor_seq, self._anchor_hash)

    def _header_frame(self) -> bytes:
        body = _HEADER_BODY.pack(self._anchor_seq, bytes.fromhex(self._anchor_hash))
        return _frame(_HEADER, body + self.client_id.encode("utf-8"))

    def _open_fd(self) -> int:
        """The file's descriptor; a closed journal raises :class:`JournalError`."""
        if self._fd < 0:
            raise JournalError(f"journal {self.path!r} of {self.client_id!r} is closed")
        return self._fd

    def _write(self, frame: bytes) -> None:
        """One ``os.write`` of ``frame``; a failed or short one is cut back."""
        try:
            if os.write(self._fd, frame) != len(frame):
                raise JournalError(f"short write to journal {self.path!r}")
        except (OSError, JournalError):
            os.ftruncate(self._fd, self._size)
            raise
        self._size += len(frame)

    def _stored(self) -> List[Tuple[int, memoryview, int]]:
        """``(kind, body, end)`` of every frame in the file, header first;
        a torn or corrupt frame anywhere raises :class:`TamperError`."""
        fd = self._open_fd()
        data = os.pread(fd, os.fstat(fd).st_size, 0)
        frames = list(_frames(data))
        if not frames or frames[0][0] != _HEADER or frames[-1][2] != len(data):
            raise TamperError(f"torn or headless journal {self.path!r}")
        return frames

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
        self._open_fd()
        seq = self._head_seq + 1
        digest = chain_hash(self._head_hash, seq, payload)
        sig = self.signer.sign(digest.encode("ascii")) if self.signer else b""
        frame = _frame(_APPEND, _APPEND_BODY.pack(
            seq, ts, bytes.fromhex(digest), len(sig)) + sig + payload)
        self._write(frame)
        self._window[seq] = [digest, False, len(frame)]
        self._head_seq, self._head_hash = seq, digest
        return seq

    def ack(self, seq: int) -> None:
        """Mark ``seq`` delivered; truncate the contiguous acked prefix.
        An ack of a seq already acked, truncated or never appended
        writes nothing and changes nothing."""
        self._open_fd()
        entry = self._window.get(seq)
        if entry is None or entry[1]:
            return
        self._write(_frame(_ACK, _SEQ.pack(seq)))
        self._settle(seq, entry)
        if self._size > COMPACT_BYTES and 2 * self._dead > self._size:
            self._compact()

    def _settle(self, seq: int, entry: list) -> None:
        """Flag unacked entry ``seq``, then move the anchor over the
        contiguous acked entries after it, never past a missing one."""
        entry[1] = True
        entry[2] += _ACK_BYTES
        window = self._window
        seq = self._anchor_seq + 1
        entry = window.get(seq)
        while entry is not None and entry[1]:
            del window[seq]
            self._dead += entry[2]
            self._anchor_seq, self._anchor_hash = seq, entry[0]
            seq += 1
            entry = window.get(seq)

    def _compact(self) -> None:
        """Rewrite the file as a header at the current anchor and the
        window's frames, through a temp file, fsync and ``os.replace``."""
        if self.path == ":memory:":
            return
        data = b"".join([self._header_frame()] + [
            _frame(kind, body) for kind, body, _end in self._stored()[1:]
            if _SEQ.unpack_from(body)[0] in self._window
        ])
        with open(self.path + ".tmp", "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(self.path + ".tmp", self.path)
        self._file.close()
        self._file = open(self.path, "a+b", buffering=0)
        self._fd = self._file.fileno()
        self._size, self._dead = len(data), 0

    def unacked(self) -> List[Tuple[int, bytes]]:
        """Entries awaiting delivery, oldest first: the replay set."""
        out = []
        for kind, body, _end in self._stored():
            if kind == _APPEND:
                seq, _ts, _digest, siglen = _APPEND_BODY.unpack_from(body)
                entry = self._window.get(seq)
                if entry is not None and not entry[1]:
                    out.append((seq, bytes(body[_APPEND_BODY.size + siglen:])))
        return out

    @property
    def pending(self) -> int:
        """Entries not yet acknowledged."""
        return sum(1 for entry in self._window.values() if not entry[1])

    def __len__(self) -> int:
        return len(self._window)

    def verify_chain(self, verifier=None) -> int:
        """Recompute the stored chain from the header's anchor (and the
        signatures, when a signer is known); returns the number of window
        entries verified.  Raises :class:`TamperError` on any payload
        edit, reordering, gap, or signature mismatch."""
        verifier = verifier if verifier is not None else self.signer
        (_kind, header, _end), *frames = self._stored()
        prev_seq, prev_hash = _HEADER_BODY.unpack_from(header)
        prev_hash = prev_hash.hex()
        verified = 0
        sig_at = _APPEND_BODY.size
        for kind, body, _end in frames:
            if kind != _APPEND:
                continue
            seq, _ts, digest, siglen = _APPEND_BODY.unpack_from(body)
            digest = digest.hex()
            if seq != prev_seq + 1:
                raise TamperError(f"sequence gap: expected {prev_seq + 1}, found {seq}")
            if chain_hash(prev_hash, seq, body[sig_at + siglen:]) != digest:
                raise TamperError(f"hash mismatch at seq {seq}")
            if verifier is not None:
                if not siglen:
                    raise TamperError(f"missing signature at seq {seq}")
                sig = bytes(body[sig_at:sig_at + siglen])
                if not verifier.verify(digest.encode("ascii"), sig):
                    raise TamperError(f"signature mismatch at seq {seq}")
            prev_seq, prev_hash = seq, digest
            verified += seq > self._anchor_seq
        return verified

    def close(self) -> None:
        """Fsync and close; a second call does nothing, and a later
        ``append``, ``ack``, ``unacked`` or ``verify_chain`` raises
        :class:`JournalError`."""
        if not self._file.closed:
            try:
                os.fsync(self._fd)
            finally:
                self._file.close()
                self._fd = -1

    def __repr__(self) -> str:
        return (f"<CaptureJournal {self.client_id!r} head={self._head_seq} "
                f"pending={self.pending}>")
