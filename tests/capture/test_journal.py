"""Unit tests for the durable capture journal.

Covers the append/ack/truncate lifecycle, crash-style reopen, the write
structure of append and ack (one ``os.write`` of one frame each, none
for a duplicate ack), failed and short writes, the hash-chain tamper
evidence (edits, reordering, gaps, forged frames), both record signers,
compaction, and the refusal of a leftover SQLite journal.

The tamper tests edit the file with the frame codec below, which writes
valid CRCs: an attacker can recompute a CRC, but not the chain.
"""

import errno
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.journal import (
    COMPACT_BYTES,
    GENESIS_HASH,
    CaptureJournal,
    EcdsaRecordSigner,
    HmacRecordSigner,
    JournalError,
    TamperError,
    chain_hash,
    journal_path_for,
)

# the on-disk format, written out independently of the journal
HEAD = struct.Struct("<IIB")  # body length, CRC-32 of kind + body, kind
HEADER, APPEND, ACK = 1, 2, 3
APPEND_BODY = struct.Struct("<Qd32sH")  # seq, ts, hash, signature length
ACK_BODY = struct.Struct("<Q")


def make_journal(tmp_path, client_id="edge-dev/conf/edge/data", signer=None):
    return CaptureJournal(
        journal_path_for(str(tmp_path), client_id), client_id, signer=signer
    )


def encode_frame(kind, body):
    return HEAD.pack(len(body), zlib.crc32(bytes([kind]) + body), kind) + body


def read_frames(path):
    """``(kind, body)`` of every frame of a journal file."""
    with open(path, "rb") as f:
        data = f.read()
    frames, offset = [], 0
    while offset < len(data):
        length, crc, kind = HEAD.unpack_from(data, offset)
        body = data[offset + HEAD.size:offset + HEAD.size + length]
        assert zlib.crc32(bytes([kind]) + body) == crc
        frames.append((kind, body))
        offset += HEAD.size + length
    return frames


def edit_entry(j, seq, drop=False, **changes):
    """Rewrite the append frame of ``seq`` in ``j``'s file, in place and
    with a valid CRC: change its ``payload``, ``hash`` (hex) or ``sig``,
    or ``drop`` it."""
    frames = []
    for kind, body in read_frames(j.path):
        if kind == APPEND and APPEND_BODY.unpack_from(body)[0] == seq:
            if drop:
                continue
            _seq, ts, digest, siglen = APPEND_BODY.unpack_from(body)
            sig = body[APPEND_BODY.size:APPEND_BODY.size + siglen]
            fields = dict(hash=digest.hex(), sig=sig,
                          payload=body[APPEND_BODY.size + siglen:])
            fields.update(changes)
            body = APPEND_BODY.pack(seq, ts, bytes.fromhex(fields["hash"]),
                                    len(fields["sig"])) + fields["sig"] + fields["payload"]
        frames.append((kind, body))
    with open(j.path, "wb") as f:  # same inode: the open journal sees it
        f.write(b"".join(encode_frame(kind, body) for kind, body in frames))


# -- append / ack / truncate ------------------------------------------------

def test_append_assigns_monotonic_seqs(tmp_path):
    j = make_journal(tmp_path)
    seqs = [j.append(f"payload-{i}".encode(), ts=float(i)) for i in range(5)]
    assert seqs == [1, 2, 3, 4, 5]
    assert j.pending == 5
    assert len(j) == 5
    assert j.unacked() == [(i + 1, f"payload-{i}".encode()) for i in range(5)]


def test_ack_truncates_contiguous_prefix_only(tmp_path):
    j = make_journal(tmp_path)
    for i in range(4):
        j.append(f"p{i}".encode())
    j.ack(2)  # out of order: nothing contiguous from the anchor yet
    assert len(j) == 4
    assert j.pending == 3
    j.ack(1)  # now 1..2 are a contiguous acked prefix
    assert len(j) == 2
    assert j.anchor[0] == 2
    assert [seq for seq, _ in j.unacked()] == [3, 4]
    j.ack(3)
    j.ack(4)
    assert len(j) == 0
    assert j.pending == 0
    # the head survives truncation: appends continue the sequence
    assert j.append(b"next") == 5


def test_reopen_recovers_head_and_unacked(tmp_path):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    j.ack(1)
    j.close()
    # crash/restart: same path, same identity
    j2 = make_journal(tmp_path)
    assert j2.unacked() == [(2, b"p1"), (3, b"p2")]
    assert j2.head[0] == 3
    assert j2.append(b"p3") == 4
    assert j2.verify_chain() == 3


def test_journal_refuses_foreign_client(tmp_path):
    j = make_journal(tmp_path, client_id="client-a")
    j.append(b"x")
    j.close()
    path = journal_path_for(str(tmp_path), "client-a")
    with pytest.raises(JournalError, match="belongs to client"):
        CaptureJournal(path, "client-b")


def test_journal_path_sanitises_topic_ids(tmp_path):
    path = journal_path_for(str(tmp_path), "edge-dev/conf/edge/data")
    assert "/" not in path.rsplit("/", 1)[-1].replace(".journal", "")
    assert path.endswith(".journal")


def test_leftover_sqlite_journal_is_refused(tmp_path):
    """A journal from the SQLite era may hold unacked entries this
    version cannot replay: opening beside it fails loudly, naming it."""
    path = journal_path_for(str(tmp_path), "c1")
    with open(path + ".db", "wb") as f:
        f.write(b"SQLite format 3\x00")
    with pytest.raises(JournalError, match=r"c1\.journal\.db"):
        CaptureJournal(path, "c1")
    assert not os.path.exists(path)


# -- write structure ----------------------------------------------------------

def trace(monkeypatch):
    """The kind of the frame of every ``os.write`` from now on, in order."""
    kinds = []
    real_write = os.write

    def write(fd, data):
        kinds.append(HEAD.unpack_from(data)[2])
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    return kinds


def test_append_is_one_statement(tmp_path, monkeypatch):
    j = make_journal(tmp_path)
    writes = trace(monkeypatch)
    j.append(b"p")
    assert writes == [APPEND]


def test_in_order_ack_is_one_transaction(tmp_path, monkeypatch):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    writes = trace(monkeypatch)
    j.ack(1)
    assert writes == [ACK]
    assert j.anchor[0] == 1
    assert [seq for seq, _ in j.unacked()] == [2, 3]
    assert j.verify_chain() == 2


def test_out_of_order_ack_is_one_update_then_in_order_ack_truncates_both(
        tmp_path, monkeypatch):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    writes = trace(monkeypatch)
    j.ack(2)
    assert writes == [ACK]
    assert len(j) == 3 and j.pending == 2
    del writes[:]
    j.ack(1)
    assert writes == [ACK]
    assert j.anchor[0] == 2
    assert len(j) == 1 and j.unacked() == [(3, b"p2")]
    assert j.verify_chain() == 1


def test_duplicate_ack_runs_no_statement(tmp_path, monkeypatch):
    j = make_journal(tmp_path)
    j.append(b"a")
    j.append(b"b")
    j.ack(1)
    anchor = j.anchor
    writes = trace(monkeypatch)
    j.ack(1)
    assert writes == []
    assert j.anchor == anchor
    assert j.unacked() == [(2, b"b")]


def test_ack_of_future_seq_changes_nothing(tmp_path):
    j = make_journal(tmp_path)
    j.append(b"a")
    j.ack(5)
    assert j.anchor == (0, GENESIS_HASH)
    assert j.pending == 1
    # the seq is appended later, unacked like any other entry
    for payload in (b"b", b"c", b"d", b"e"):
        j.append(payload)
    assert [seq for seq, _ in j.unacked()] == [1, 2, 3, 4, 5]
    assert j.verify_chain() == 5


def test_ack_on_empty_journal_keeps_the_anchor(tmp_path):
    j = make_journal(tmp_path)
    j.ack(1)
    assert j.anchor == (0, GENESIS_HASH)
    assert len(j) == 0
    assert j.append(b"a") == 1
    assert j.unacked() == [(1, b"a")]
    assert j.verify_chain() == 1


def test_ack_never_moves_the_anchor_past_a_deleted_row(tmp_path):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    j.ack(2)
    edit_entry(j, 1, drop=True)  # tampering at rest, between incarnations
    j.close()
    j = make_journal(tmp_path)
    j.ack(1)
    assert j.anchor == (0, GENESIS_HASH)
    with pytest.raises(TamperError, match="sequence gap: expected 1, found 2"):
        j.verify_chain()
    j.close()
    reopened = make_journal(tmp_path)
    assert reopened.anchor == (0, GENESIS_HASH)
    with pytest.raises(TamperError, match="sequence gap"):
        reopened.verify_chain()


def test_interrupted_ack_leaves_a_verifiable_journal(tmp_path, monkeypatch):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    size = os.path.getsize(j.path)
    real_write = os.write

    def torn_write(fd, data):  # half the frame gets out, then the disk fails
        real_write(fd, data[:len(data) // 2])
        raise OSError(errno.EIO, "disk I/O error")

    monkeypatch.setattr(os, "write", torn_write)
    with pytest.raises(OSError, match="disk I/O error"):
        j.ack(1)
    monkeypatch.undo()
    assert os.path.getsize(j.path) == size  # the half frame was cut back
    j._file.close()  # the crash: no fsync, memory gone
    reopened = make_journal(tmp_path)
    assert reopened.verify_chain() == 3
    assert reopened.anchor == j.anchor == (0, GENESIS_HASH)
    # the interrupted entry is replayed by the next incarnation
    assert [seq for seq, _ in reopened.unacked()] == [1, 2, 3]
    reopened.ack(1)
    reopened.ack(2)
    assert reopened.anchor[0] == 2
    assert reopened.unacked() == [(3, b"p2")]
    assert reopened.verify_chain() == 1


def test_short_write_is_cut_back_and_changes_nothing(tmp_path, monkeypatch):
    j = make_journal(tmp_path)
    j.append(b"a")
    size, head = os.path.getsize(j.path), j.head
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:5]))
    with pytest.raises(JournalError, match="short write"):
        j.append(b"b")
    monkeypatch.undo()
    assert os.path.getsize(j.path) == size
    assert j.head == head and len(j) == 1
    assert j.append(b"b") == 2
    assert j.verify_chain() == 2


@pytest.mark.parametrize("call", [
    lambda j: j.append(b"c"),
    lambda j: j.ack(1),
    lambda j: j.ack(2),  # already acked: still refused
    lambda j: j.unacked(),
    lambda j: j.verify_chain(),
], ids=["append", "ack", "duplicate-ack", "unacked", "verify_chain"])
def test_a_closed_journal_refuses_every_call_and_changes_nothing(tmp_path, call):
    j = make_journal(tmp_path)
    j.append(b"a")
    j.append(b"b")
    j.ack(2)
    j.close()
    state = j.head, j.anchor, j.pending, len(j)
    with pytest.raises(JournalError, match="closed"):
        call(j)
    assert (j.head, j.anchor, j.pending, len(j)) == state
    reopened = make_journal(tmp_path)
    assert reopened.unacked() == [(1, b"a")]


def test_reopen_truncates_an_acked_row_at_the_anchor(tmp_path):
    """Ack frames past the header's anchor are replayed on open: the
    anchor moves over the contiguous acked run, and stops at the gap."""
    j = make_journal(tmp_path)
    for i in range(4):
        j.append(f"p{i}".encode())
    j.close()
    with open(j.path, "ab") as f:
        f.write(b"".join(encode_frame(ACK, ACK_BODY.pack(seq)) for seq in (1, 2, 4)))
    reopened = make_journal(tmp_path)
    assert reopened.anchor == (2, chain_hash(
        chain_hash(GENESIS_HASH, 1, b"p0"), 2, b"p1"))
    assert [seq for seq, _ in reopened.unacked()] == [3]
    assert len(reopened) == 2
    assert reopened.verify_chain() == 2
    reopened.ack(3)
    assert len(reopened) == 0
    assert reopened.anchor[0] == 4


# -- hash chain & tamper evidence -------------------------------------------

def test_chain_hash_binds_predecessor_seq_and_payload():
    h1 = chain_hash(GENESIS_HASH, 1, b"a")
    assert h1 != chain_hash(GENESIS_HASH, 2, b"a")
    assert h1 != chain_hash(GENESIS_HASH, 1, b"b")
    assert h1 != chain_hash(h1, 1, b"a")


def test_verify_chain_detects_payload_edit(tmp_path):
    j = make_journal(tmp_path)
    for i in range(4):
        j.append(f"record-{i}".encode())
    assert j.verify_chain() == 4
    # attacker edits a historical payload directly in the store
    edit_entry(j, 2, payload=b"forged")
    with pytest.raises(TamperError, match="hash mismatch at seq 2"):
        j.verify_chain()


def test_verify_chain_detects_deleted_entry(tmp_path):
    j = make_journal(tmp_path)
    for i in range(4):
        j.append(f"record-{i}".encode())
    edit_entry(j, 3, drop=True)
    with pytest.raises(TamperError, match="sequence gap"):
        j.verify_chain()


def test_verify_chain_detects_rewritten_history(tmp_path):
    """Recomputing hashes for a forged payload still fails: the next
    entry chains to the original digest."""
    j = make_journal(tmp_path)
    j.append(b"real-1")
    j.append(b"real-2")
    forged_hash = chain_hash(GENESIS_HASH, 1, b"forged")
    edit_entry(j, 1, payload=b"forged", hash=forged_hash)
    with pytest.raises(TamperError, match="hash mismatch at seq 2"):
        j.verify_chain()


def test_verify_chain_survives_truncation(tmp_path):
    """Deleting the acked prefix keeps the suffix verifiable via the
    persisted anchor."""
    j = make_journal(tmp_path)
    for i in range(6):
        j.append(f"p{i}".encode())
    for seq in (1, 2, 3):
        j.ack(seq)
    assert len(j) == 3
    assert j.verify_chain() == 3
    j.close()
    j2 = make_journal(tmp_path)
    assert j2.verify_chain() == 3


# -- signing -----------------------------------------------------------------

def test_hmac_signed_journal_verifies_and_detects_forgery(tmp_path):
    signer = HmacRecordSigner(b"shared-secret-key-16b")
    j = make_journal(tmp_path, signer=signer)
    j.append(b"a")
    j.append(b"b")
    assert j.verify_chain() == 2
    # wrong key: every signature fails
    other = HmacRecordSigner(b"a-different-key-16bb")
    with pytest.raises(TamperError, match="signature mismatch"):
        j.verify_chain(verifier=other)
    # stripped signature: detected when verifying with the signer
    edit_entry(j, 2, sig=b"")
    with pytest.raises(TamperError, match="missing signature"):
        j.verify_chain()


def test_hmac_signer_rejects_short_keys():
    with pytest.raises(ValueError):
        HmacRecordSigner(b"short")


@pytest.mark.skipif(not EcdsaRecordSigner.available(),
                    reason="cryptography not installed")
def test_ecdsa_signed_journal_verifies(tmp_path):
    signer = EcdsaRecordSigner.generate()
    j = make_journal(tmp_path, signer=signer)
    j.append(b"a")
    j.append(b"b")
    assert j.verify_chain() == 2
    # a fresh keypair must not verify this journal
    with pytest.raises(TamperError, match="signature mismatch"):
        j.verify_chain(verifier=EcdsaRecordSigner.generate())
    # verify-only instance (audit host) works without the private key
    auditor = EcdsaRecordSigner(public_key=signer._public)
    assert j.verify_chain(verifier=auditor) == 2
    with pytest.raises(JournalError, match="verify-only"):
        auditor.sign(b"x")


def test_unsigned_journal_ignores_missing_signatures(tmp_path):
    j = make_journal(tmp_path)
    j.append(b"a")
    assert j.verify_chain() == 1  # no signer, no signature checks


def test_in_memory_journal_for_tests():
    j = CaptureJournal(":memory:", "c1")
    assert j.append(b"x") == 1
    assert j.verify_chain() == 1
    j.close()


def test_a_file_that_is_not_a_journal_is_refused_not_truncated(tmp_path):
    path = str(tmp_path / "c1.journal")
    with open(path, "wb") as f:
        f.write(b"SQLite format 3\x00" + bytes(200))
    with pytest.raises(JournalError, match="not a capture journal"):
        CaptureJournal(path, "c1")
    assert os.path.getsize(path) == 216


# -- crash cuts ------------------------------------------------------------------

PROGRAM = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.binary(max_size=24)),
        st.tuples(st.just("ack"), st.integers(min_value=1, max_value=12)),
        st.just(("reopen", None)),
    ),
    max_size=30,
)


def run_program(path, program):
    """Run ``program`` on a fresh journal at ``path`` and leave it open,
    as a power loss would; returns the end offset, kind, seq and
    payload of every frame written, the header first."""
    j = CaptureJournal(path, "c1")
    written = [(os.path.getsize(path), "header", 0, None)]
    for op, arg in program:
        if op == "append":
            seq = j.append(arg)
            written.append((os.path.getsize(path), "append", seq, arg))
        elif op == "ack":
            size = os.path.getsize(path)
            j.ack(arg)  # in order, out of order, duplicate or future
            if os.path.getsize(path) != size:
                written.append((os.path.getsize(path), "ack", arg, None))
        else:
            j.close()
            j = CaptureJournal(path, "c1")
    j._file.close()  # no fsync: the power goes
    return written


@settings(max_examples=80, deadline=None)
@given(program=PROGRAM, data=st.data())
def test_a_crash_cut_anywhere_reopens_to_the_whole_frames(program, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c1.journal")
        written = run_program(path, program)
        cut = data.draw(st.integers(0, os.path.getsize(path)), label="cut")
        os.truncate(path, cut)
        j = CaptureJournal(path, "c1")
        whole = [frame for frame in written if frame[0] <= cut]
        acked = {seq for _end, kind, seq, _p in whole if kind == "ack"}
        appended = [(seq, p) for _end, kind, seq, p in whole if kind == "append"]
        assert j.unacked() == [(seq, p) for seq, p in appended if seq not in acked]
        assert j.verify_chain() == len(j)
        assert j.append(b"next") == max([seq for seq, _ in appended], default=0) + 1
        assert j.verify_chain() == len(j)
        j.close()


@settings(max_examples=80, deadline=None)
@given(program=PROGRAM, data=st.data())
def test_a_flipped_byte_in_a_non_final_frame_is_tampering(program, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c1.journal")
        written = run_program(path, [("append", b"first")] + program)
        final_start = written[-2][0]  # where the frame before the last ends
        at = data.draw(st.integers(0, final_start - 1), label="offset")
        with open(path, "r+b") as f:
            f.seek(at)
            byte = f.read(1)[0]
            f.seek(at)
            f.write(bytes([byte ^ data.draw(st.integers(1, 255), label="mask")]))
        with pytest.raises(TamperError):
            CaptureJournal(path, "c1")


# -- compaction ------------------------------------------------------------------

@pytest.mark.parametrize("outstanding", [0, 8])
def test_compaction_bounds_the_file(tmp_path, outstanding):
    j = make_journal(tmp_path)
    payload = bytes(200)
    largest = 0
    for _ in range(20_000):
        j.append(payload)
        largest = max(largest, os.path.getsize(j.path))
        if len(j) > outstanding:
            j.ack(j.anchor[0] + 1)
    # ~5 MB of frames went through a file that never passed 128 KiB
    assert COMPACT_BYTES // 2 < largest < 128 * 1024
    j.close()
    reopened = make_journal(tmp_path)
    assert reopened.verify_chain() == outstanding
    assert [seq for seq, _ in reopened.unacked()] == list(
        range(20_001 - outstanding, 20_001))
    assert reopened.append(b"next") == 20_001
    assert reopened.verify_chain() == outstanding + 1


def test_compaction_keeps_the_window_and_its_acks(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.capture.journal.COMPACT_BYTES", 0)
    j = make_journal(tmp_path)
    for payload in (bytes(1000), b"b", b"c", b"d"):
        j.append(payload)
    j.ack(3)  # out of order: its ack frame must survive the rewrite
    j.ack(1)  # most of the file is now acked frames: compacted
    assert [kind for kind, _ in read_frames(j.path)] == [
        HEADER, APPEND, APPEND, APPEND, ACK]
    assert j.unacked() == [(2, b"b"), (4, b"d")]
    assert j.verify_chain() == 3
    j.close()
    reopened = make_journal(tmp_path)
    assert reopened.anchor == j.anchor and reopened.anchor[0] == 1
    assert reopened.unacked() == [(2, b"b"), (4, b"d")]
    reopened.ack(2)
    assert reopened.anchor[0] == 3
    assert reopened.verify_chain() == 1


def test_open_removes_a_stale_compaction_temp_file(tmp_path):
    j = make_journal(tmp_path)
    for i in range(5):
        j.append(f"p{i}".encode())
    j.ack(1)
    j.close()
    with open(j.path, "rb") as f:
        stale = f.read()[:40]
    with open(j.path + ".tmp", "wb") as f:  # a crash cut the rewrite short
        f.write(stale)
    reopened = make_journal(tmp_path)
    assert not os.path.exists(j.path + ".tmp")
    assert [seq for seq, _ in reopened.unacked()] == [2, 3, 4, 5]
    assert reopened.verify_chain() == 4
