"""Unit tests for the durable capture journal.

Covers the append/ack/truncate lifecycle, crash-style reopen, the
commit structure of append and ack (one statement, one transaction),
an ack interrupted mid-transaction, the hash-chain tamper evidence
(edits, reordering, gaps, forged rows) and both record signers.
"""

import sqlite3

import pytest

from repro.capture.journal import (
    GENESIS_HASH,
    CaptureJournal,
    EcdsaRecordSigner,
    HmacRecordSigner,
    JournalError,
    TamperError,
    chain_hash,
    journal_path_for,
)


def make_journal(tmp_path, client_id="edge-dev/conf/edge/data", signer=None):
    return CaptureJournal(
        journal_path_for(str(tmp_path), client_id), client_id, signer=signer
    )


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
    assert "/" not in path.rsplit("/", 1)[-1].replace(".journal.db", "")
    assert path.endswith(".journal.db")


# -- commit structure ---------------------------------------------------------

def trace(j):
    """Every SQL statement ``j`` runs from now on, in order."""
    statements = []
    j._conn.set_trace_callback(statements.append)
    return statements


def test_append_is_one_statement(tmp_path):
    j = make_journal(tmp_path)
    statements = trace(j)
    j.append(b"p")
    assert len(statements) == 1
    assert statements[0].startswith("INSERT INTO journal")


def test_in_order_ack_is_one_transaction(tmp_path):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    statements = trace(j)
    j.ack(1)
    assert statements[0] == "BEGIN"
    assert statements[-1] == "COMMIT"
    assert statements.count("BEGIN") == statements.count("COMMIT") == 1
    assert not any(s.startswith("UPDATE journal SET acked") for s in statements)
    assert j.anchor[0] == 1
    assert [seq for seq, _ in j.unacked()] == [2, 3]
    assert j.verify_chain() == 2


def test_out_of_order_ack_is_one_update_then_in_order_ack_truncates_both(tmp_path):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    statements = trace(j)
    j.ack(2)
    assert len(statements) == 1
    assert statements[0].startswith("UPDATE journal SET acked=1")
    assert len(j) == 3 and j.pending == 2
    del statements[:]
    j.ack(1)
    assert statements.count("BEGIN") == statements.count("COMMIT") == 1
    assert j.anchor[0] == 2
    assert len(j) == 1 and j.unacked() == [(3, b"p2")]
    assert j.verify_chain() == 1


def test_duplicate_ack_runs_no_statement(tmp_path):
    j = make_journal(tmp_path)
    j.append(b"a")
    j.append(b"b")
    j.ack(1)
    anchor = j.anchor
    statements = trace(j)
    j.ack(1)
    assert statements == []
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
    j._conn.execute("DELETE FROM journal WHERE seq=1")  # tampering
    j.ack(1)
    assert j.anchor == (0, GENESIS_HASH)
    with pytest.raises(TamperError, match="sequence gap: expected 1, found 2"):
        j.verify_chain()
    j.close()
    reopened = make_journal(tmp_path)
    assert reopened.anchor == (0, GENESIS_HASH)
    with pytest.raises(TamperError, match="sequence gap"):
        reopened.verify_chain()


def test_new_journal_uses_small_pages_and_an_existing_one_keeps_its_own(tmp_path):
    j = make_journal(tmp_path / "new")
    assert j._conn.execute("PRAGMA page_size").fetchone()[0] == 1024
    path = str(tmp_path / "old.journal.db")
    conn = sqlite3.connect(path, isolation_level=None)
    conn.execute("PRAGMA page_size=4096")
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("CREATE TABLE t (x)")
    conn.close()
    old = CaptureJournal(path, "c1")
    assert old._conn.execute("PRAGMA page_size").fetchone()[0] == 4096
    old.ack(old.append(b"x"))
    assert old.anchor[0] == 1 and len(old) == 0


class FailingAnchorWrite:
    """Connection proxy whose anchor write fails, as a crash between the
    truncation and the anchor update would."""

    def __init__(self, conn):
        self._conn = conn

    def execute(self, sql, *args):
        if sql.startswith("INSERT INTO meta"):
            raise sqlite3.OperationalError("disk I/O error")
        return self._conn.execute(sql, *args)

    def __getattr__(self, attr):
        return getattr(self._conn, attr)


def test_interrupted_ack_leaves_a_verifiable_journal(tmp_path):
    j = make_journal(tmp_path)
    for i in range(3):
        j.append(f"p{i}".encode())
    conn = j._conn
    j._conn = FailingAnchorWrite(conn)
    with pytest.raises(sqlite3.OperationalError):
        j.ack(1)
    conn.close()  # the crash
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


def test_reopen_truncates_an_acked_row_at_the_anchor(tmp_path):
    """A journal whose acks were not transactional can hold acked rows
    right after the anchor; opening it truncates them."""
    j = make_journal(tmp_path)
    for i in range(4):
        j.append(f"p{i}".encode())
    j._conn.execute("UPDATE journal SET acked=1 WHERE seq IN (1, 2, 4)")
    j.close()
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
    j._conn.execute("UPDATE journal SET payload=? WHERE seq=2", (b"forged",))
    with pytest.raises(TamperError, match="hash mismatch at seq 2"):
        j.verify_chain()


def test_verify_chain_detects_deleted_entry(tmp_path):
    j = make_journal(tmp_path)
    for i in range(4):
        j.append(f"record-{i}".encode())
    j._conn.execute("DELETE FROM journal WHERE seq=3")
    with pytest.raises(TamperError, match="sequence gap"):
        j.verify_chain()


def test_verify_chain_detects_rewritten_history(tmp_path):
    """Recomputing hashes for a forged payload still fails: the next
    entry chains to the original digest."""
    j = make_journal(tmp_path)
    j.append(b"real-1")
    j.append(b"real-2")
    forged_hash = chain_hash(GENESIS_HASH, 1, b"forged")
    j._conn.execute(
        "UPDATE journal SET payload=?, hash=? WHERE seq=1",
        (b"forged", forged_hash),
    )
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
    j._conn.execute("UPDATE journal SET sig=NULL WHERE seq=2")
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
