"""ProvLight capture over MQTT-SN: the paper's transport.

The capture critical path (what the instrumented workflow waits on) is
only building the record, binary-encoding + compressing it and
appending it to the outbound queue — all owned by the shared
:class:`~repro.capture.CaptureClient` façade.  This module contributes
only the protocol-specific part: :class:`MqttSnCaptureTransport`, a thin
adapter over :class:`~repro.mqttsn.MqttSnClient` driving the MQTT-SN QoS
exchange in the background so network latency, bandwidth and the broker
never delay the workflow (the design property behind Tables VII/VIII).

Not re-exported from :mod:`repro.mqttsn`: this module imports
:mod:`repro.capture`, whose import chain reaches the broker in
:mod:`repro.core.server`, so the protocol package must load without it.
"""

from __future__ import annotations

from typing import Optional

from ..capture import CaptureConfig, CaptureTransport, register_transport
from ..device import Device
from ..net import Endpoint
from .client import MqttSnClient

__all__ = ["MqttSnCaptureTransport"]


class MqttSnCaptureTransport(CaptureTransport):
    """Capture over an asynchronous MQTT-SN publish (the paper's choice).

    ``send()`` is :meth:`~repro.mqttsn.MqttSnClient.publish_nowait`: the
    QoS machinery (PUBREC/PUBREL/PUBCOMP, retransmissions) runs in the
    MQTT-SN client's socket callback, off the workflow's critical path.
    Without ``config.client_id``, the n-th client built on a network is
    ``provlight-n``.
    """

    name = "mqttsn"
    blocking = False
    requires_setup = True  # the broker must assign a topic id first

    def __init__(self, device: Device, broker: Endpoint, topic: str,
                 config: CaptureConfig):
        host = device.host
        self.mqtt = MqttSnClient(
            host, config.client_id or f"provlight-{next(host.network.client_ids)}",
            broker,
        )
        self.qos = config.qos
        self.topic_id: Optional[int] = None

    def connect(self):
        yield from self.mqtt.connect()

    def register(self, topic: str):
        self.topic_id = yield from self.mqtt.register(topic)
        return self.topic_id

    def send(self, payload: bytes):
        return self.mqtt.publish_nowait(self.topic_id, payload, qos=self.qos)

    def disconnect(self) -> None:
        self.mqtt.disconnect()


register_transport("mqttsn", MqttSnCaptureTransport)
