"""Tests for the secure-transmission extension (paper future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AuthenticationError,
    CodecError,
    PayloadCipher,
    decode_payload,
    encode_payload,
    derive_key,
)


def make_cipher(secret="shared-secret", seed=0):
    return PayloadCipher(derive_key(secret), rng=np.random.default_rng(seed))


def test_derive_key_deterministic_and_salted():
    assert derive_key("s") == derive_key("s")
    assert derive_key("s") != derive_key("t")
    assert derive_key("s", salt="a") != derive_key("s", salt="b")
    assert len(derive_key("s")) == 32


def test_encrypt_decrypt_roundtrip():
    cipher = make_cipher()
    blob = cipher.encrypt(b"top secret provenance")
    assert cipher.decrypt(blob) == b"top secret provenance"


def test_ciphertext_hides_plaintext():
    cipher = make_cipher()
    blob = cipher.encrypt(b"AAAAAAAAAAAAAAAAAAAAAAAA")
    assert b"AAAA" not in blob


def test_nonce_randomizes_ciphertext():
    cipher = PayloadCipher(derive_key("k"))  # os.urandom nonces
    assert cipher.encrypt(b"same") != cipher.encrypt(b"same")


def test_tampered_payload_rejected():
    cipher = make_cipher()
    blob = bytearray(cipher.encrypt(b"data"))
    blob[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        cipher.decrypt(bytes(blob))


def test_wrong_key_rejected():
    blob = make_cipher("alice").encrypt(b"data")
    with pytest.raises(AuthenticationError):
        make_cipher("mallory").decrypt(blob)


def test_short_blob_rejected():
    with pytest.raises(AuthenticationError):
        make_cipher().decrypt(b"short")


def test_key_validation():
    with pytest.raises(ValueError):
        PayloadCipher(b"tiny")
    with pytest.raises(TypeError):
        make_cipher().encrypt("not bytes")


def test_overhead_is_fixed():
    cipher = make_cipher()
    assert cipher.overhead_bytes == 32
    assert len(cipher.encrypt(b"")) == 32


def test_encrypted_payload_framing_roundtrip():
    cipher = make_cipher()
    value = {"kind": "task_end", "data": [{"attributes": {"x": [1.5] * 20}}]}
    wire = encode_payload(value, cipher=cipher)
    assert decode_payload(wire, cipher=cipher) == value


def test_encrypted_payload_requires_cipher():
    cipher = make_cipher()
    wire = encode_payload({"a": 1}, cipher=cipher)
    with pytest.raises(CodecError, match="encrypted"):
        decode_payload(wire)


def test_encrypted_payload_wrong_key_fails_cleanly():
    wire = encode_payload({"a": 1}, cipher=make_cipher("alice"))
    with pytest.raises(CodecError, match="decryption failed"):
        decode_payload(wire, cipher=make_cipher("eve"))


def test_plain_payload_ignores_cipher():
    wire = encode_payload({"a": 1})
    assert decode_payload(wire, cipher=make_cipher()) == {"a": 1}


@given(st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_property_encrypt_decrypt_identity(data):
    cipher = make_cipher()
    assert cipher.decrypt(cipher.encrypt(data)) == data


def test_end_to_end_encrypted_capture():
    """Client encrypts; translator with the shared key still delivers."""
    from repro.core import CallableBackend, Data, ProvLightClient, ProvLightServer, Task, Workflow
    from repro.device import A8M3, Device
    from repro.net import Network
    from repro.simkernel import Environment

    key = derive_key("edge-to-cloud")
    env = Environment()
    net = Network(env, seed=2)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    sink = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(sink.extend),
        cipher=PayloadCipher(key, rng=np.random.default_rng(1)),
    )
    client = ProvLightClient(
        dev, server.endpoint, "sec/edge",
        cipher=PayloadCipher(key, rng=np.random.default_rng(2)),
    )

    def scenario(env):
        yield from server.pool.attach("sec/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        task = Task(0, wf)
        yield from task.begin([Data("in0", 1, {"v": 42})])
        yield from task.end([Data("out0", 1, {"v": 43})])
        yield from wf.end(drain=True)
        yield env.timeout(5)

    env.process(scenario(env))
    env.run()
    assert len(sink) == 4
    assert any(r.get("type") == "task" for r in sink)


def test_end_to_end_wrong_key_drops_messages():
    from repro.core import CallableBackend, Data, ProvLightClient, ProvLightServer, Task, Workflow
    from repro.device import A8M3, Device
    from repro.net import Network
    from repro.simkernel import Environment

    env = Environment()
    net = Network(env, seed=2)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    sink = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(sink.extend),
        cipher=PayloadCipher(derive_key("right"), rng=np.random.default_rng(1)),
    )
    client = ProvLightClient(
        dev, server.endpoint, "sec/edge",
        cipher=PayloadCipher(derive_key("wrong"), rng=np.random.default_rng(2)),
    )

    def scenario(env):
        yield from server.pool.attach("sec/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        yield from wf.end(drain=True)
        yield env.timeout(5)

    env.process(scenario(env))
    env.run()
    assert sink == []
    assert server.translate_errors.count == 2
