"""CoAP (RFC 7252) over simulated UDP, plus a ProvLight-over-CoAP
transport — a protocol-comparison extension: CON/ACK (2 packets,
at-least-once + dedup) versus MQTT-SN QoS 2 (4 packets, exactly-once)."""

from .endpoint import (
    DEFAULT_COAP_PORT,
    CoapClient,
    CoapServer,
    CoapServerError,
    CoapTimeout,
)
from .messages import (
    CODE_BAD_REQUEST,
    CODE_CHANGED,
    CODE_CREATED,
    CODE_EMPTY,
    CODE_NOT_FOUND,
    CODE_POST,
    CODE_SERVICE_UNAVAILABLE,
    TYPE_ACK,
    TYPE_CON,
    TYPE_NON,
    TYPE_RST,
    CoapError,
    CoapMessage,
    code_str,
)
from .transport import ProvLightCoapServer

__all__ = [
    "CoapMessage",
    "CoapError",
    "code_str",
    "CoapClient",
    "CoapServer",
    "CoapTimeout",
    "CoapServerError",
    "DEFAULT_COAP_PORT",
    "ProvLightCoapServer",
    "TYPE_CON",
    "TYPE_NON",
    "TYPE_ACK",
    "TYPE_RST",
    "CODE_EMPTY",
    "CODE_POST",
    "CODE_CREATED",
    "CODE_CHANGED",
    "CODE_BAD_REQUEST",
    "CODE_NOT_FOUND",
    "CODE_SERVICE_UNAVAILABLE",
]
