"""MQTT-SN (MQTT for Sensor Networks) over simulated UDP.

Wire-accurate packet codec, a client with QoS 0/1/2 state machines and
retransmission, an RSMB-style broker with topic registry and wildcard
subscriptions, and exactly-once (QoS 2) semantics in both directions.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "packets": ".packets",
    "DEFAULT_BROKER_PORT": ".broker",
    "MqttSnBroker": ".broker",
    "MessageHandler": ".client",
    "MqttSnClient": ".client",
    "MqttSnTimeout": ".client",
    "DEFAULT_BROKER_SHARDS": ".cluster",
    "PLACEMENT_POLICIES": ".cluster",
    "BrokerCluster": ".cluster",
    "Connack": ".packets",
    "Connect": ".packets",
    "Disconnect": ".packets",
    "MalformedPacket": ".packets",
    "MqttSnError": ".packets",
    "MqttSnMessage": ".packets",
    "Pingreq": ".packets",
    "Pingresp": ".packets",
    "Puback": ".packets",
    "Pubcomp": ".packets",
    "Publish": ".packets",
    "Pubrec": ".packets",
    "Pubrel": ".packets",
    "Regack": ".packets",
    "Register": ".packets",
    "Suback": ".packets",
    "Subscribe": ".packets",
    "decode": ".packets",
    "encode": ".packets",
    "SubscriptionIndex": ".topics",
    "TopicRegistry": ".topics",
    "topic_matches": ".topics",
    "validate_filter": ".topics",
}

__all__ = [
    "packets",
    "MqttSnBroker",
    "BrokerCluster",
    "DEFAULT_BROKER_PORT",
    "DEFAULT_BROKER_SHARDS",
    "PLACEMENT_POLICIES",
    "MqttSnClient",
    "MqttSnTimeout",
    "MessageHandler",
    "TopicRegistry",
    "SubscriptionIndex",
    "topic_matches",
    "validate_filter",
    "MqttSnMessage",
    "MqttSnError",
    "MalformedPacket",
    "Connect",
    "Connack",
    "Register",
    "Regack",
    "Publish",
    "Puback",
    "Pubrec",
    "Pubrel",
    "Pubcomp",
    "Subscribe",
    "Suback",
    "Pingreq",
    "Pingresp",
    "Disconnect",
    "encode",
    "decode",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
