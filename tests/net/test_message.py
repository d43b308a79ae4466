"""Unit tests for message envelopes."""

import pytest

from repro.net.message import Message, next_message_id


def _msg(**overrides):
    base = dict(sender="a", destination="b", kind="request")
    base.update(overrides)
    return Message(**base)


def test_message_ids_are_unique_and_increasing():
    first = _msg()
    second = _msg()
    assert second.msg_id > first.msg_id


def test_next_message_id_monotone():
    assert next_message_id() < next_message_id()


def test_with_destination_preserves_msg_id():
    original = _msg()
    copy = original.with_destination("c")
    assert copy.destination == "c"
    assert copy.msg_id == original.msg_id
    assert copy.payload == original.payload


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        _msg(size_bytes=-1)


def test_describe_contains_routing_fields():
    message = _msg(correlation_id=9)
    info = message.describe()
    assert info["from"] == "a"
    assert info["to"] == "b"
    assert info["corr"] == 9
    assert info["msg_kind"] == "request"


def test_messages_are_immutable():
    message = _msg()
    with pytest.raises(AttributeError):
        message.sender = "x"
