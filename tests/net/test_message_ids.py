"""The 16-bit message-id sources of MQTT-SN (client and broker session)
and CoAP: the same sequence as ``itertools.cycle(range(1, 0x10000))``,
without a copy of every id handed out."""

import itertools
import tracemalloc

import pytest

from repro.coap import CoapClient
from repro.mqttsn import MqttSnClient
from repro.mqttsn.broker import _Session
from repro.net import Network
from repro.simkernel import Environment


def broker_session():
    return _Session(("edge", 5000), "c0").msg_ids


def mqttsn_client():
    net = Network(Environment(), seed=1)
    return MqttSnClient(net.add_host("edge"), "c0", ("cloud", 1883))._msg_ids


def coap_client():
    net = Network(Environment(), seed=1)
    return CoapClient(net.add_host("edge"), ("cloud", 5683))._mids


SOURCES = pytest.mark.parametrize(
    "source", [broker_session, mqttsn_client, coap_client],
    ids=["broker-session", "mqttsn-client", "coap-client"])


@SOURCES
def test_ids_run_1_to_0xffff_and_wrap_like_the_old_cycle(source):
    count = 2 * 0xFFFF + 3
    old = itertools.cycle(range(1, 0x10000))
    assert list(itertools.islice(source(), count)) == list(itertools.islice(old, count))


@SOURCES
def test_drawing_a_full_cycle_keeps_no_copy_of_the_ids(source):
    ids = source()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(0xFFFF):
            next(ids)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
