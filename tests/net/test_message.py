"""Unit tests for message envelopes."""

import pickle

import pytest

from repro.net.message import Message, next_message_id, reset_message_ids


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


def test_messages_are_immutable():
    message = _msg()
    with pytest.raises(AttributeError):
        message.sender = "x"
    with pytest.raises(AttributeError):
        message.msg_id = 1


def test_pickle_round_trip_keeps_the_id_and_draws_none():
    message = _msg(payload={"service": "s"}, correlation_id=9)
    copy = pickle.loads(pickle.dumps(message))
    assert copy == message and type(copy) is Message
    assert copy.msg_id == message.msg_id
    # No id was drawn by the round trip: the next envelope gets the next one.
    assert _msg().msg_id == message.msg_id + 1


def test_explicit_msg_id_is_kept_and_draws_none():
    before = _msg().msg_id
    assert _msg(msg_id=7).msg_id == 7
    assert _msg().msg_id == before + 1


def test_reset_message_ids_restarts_the_sequence():
    _msg()
    reset_message_ids()
    assert _msg().msg_id == 1
    assert _msg().msg_id == 2


def test_repr_names_every_field():
    message = Message("a", "b", "request", None, 64, 5, 3)
    assert repr(message) == (
        "Message(sender='a', destination='b', kind='request', payload=None, "
        "size_bytes=64, msg_id=5, correlation_id=3)"
    )
