"""CoAP (RFC 7252) over simulated UDP, plus a ProvLight-over-CoAP
transport — a protocol-comparison extension: CON/ACK (2 packets,
at-least-once + dedup) versus MQTT-SN QoS 2 (4 packets, exactly-once)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_COAP_PORT": ".endpoint",
    "CoapClient": ".endpoint",
    "CoapServer": ".endpoint",
    "CoapServerError": ".endpoint",
    "CoapTimeout": ".endpoint",
    "CODE_BAD_REQUEST": ".messages",
    "CODE_CHANGED": ".messages",
    "CODE_CREATED": ".messages",
    "CODE_EMPTY": ".messages",
    "CODE_NOT_FOUND": ".messages",
    "CODE_POST": ".messages",
    "CODE_SERVICE_UNAVAILABLE": ".messages",
    "TYPE_ACK": ".messages",
    "TYPE_CON": ".messages",
    "TYPE_NON": ".messages",
    "TYPE_RST": ".messages",
    "CoapError": ".messages",
    "CoapMessage": ".messages",
    "code_str": ".messages",
    "ProvLightCoapServer": ".transport",
}

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


__getattr__ = lazy_exports(__name__, _EXPORTS)
