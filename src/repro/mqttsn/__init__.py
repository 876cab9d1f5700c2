"""MQTT-SN (MQTT for Sensor Networks) over simulated UDP.

Wire-accurate packet codec, a client with QoS 0/1/2 state machines and
retransmission, an RSMB-style broker with topic registry and wildcard
subscriptions, and exactly-once (QoS 2) semantics in both directions.
"""

from . import packets
from .broker import DEFAULT_BROKER_PORT, MqttSnBroker
from .client import MessageHandler, MqttSnClient, MqttSnTimeout
from .cluster import DEFAULT_BROKER_SHARDS, PLACEMENT_POLICIES, BrokerCluster
from .packets import (
    Connack,
    Connect,
    Disconnect,
    MalformedPacket,
    MqttSnError,
    MqttSnMessage,
    Pingreq,
    Pingresp,
    Puback,
    Pubcomp,
    Publish,
    Pubrec,
    Pubrel,
    Regack,
    Register,
    Suback,
    Subscribe,
    decode,
    encode,
)
from .topics import SubscriptionIndex, TopicRegistry, topic_matches, validate_filter

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
