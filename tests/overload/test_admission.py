"""Unit tests for the admission controller (repro.overload.admission)."""

from types import MappingProxyType

import numpy as np

from repro.core.selection import ProbabilityRow
from repro.overload import AdmissionController
from repro.overload.admission import FLOOR_PROBABILITY, SHED_LOAD


def test_config_validation():
    # The constants the controller sheds on are a probability and a load.
    assert 0.0 <= FLOOR_PROBABILITY <= 1.0
    assert SHED_LOAD >= 0.0


def test_best_probability_reads_the_decision_annotations():
    best = AdmissionController.best_probability
    assert best({"probabilities": {"s-1": 0.2, "s-2": 0.7}}) == 0.7
    assert best({"probabilities": {}}) is None
    assert best({"bootstrap": True}) is None
    assert best({"probabilities": "garbage"}) is None


def test_any_mapping_is_read_not_only_a_dict():
    # The dynamic policy records a ProbabilityRow, not a dict: a guard
    # that read only dicts would admit every request of a governed stack.
    best = AdmissionController.best_probability
    row = ProbabilityRow({"s-1": 0, "s-2": 1}, np.array([0.2, 0.4]))
    assert best({"probabilities": row}) == 0.4
    assert best({"probabilities": MappingProxyType({"s-1": 0.3})}) == 0.3
    assert best({"probabilities": MappingProxyType({})}) is None
    controller = AdmissionController()
    assert controller.should_shed({"probabilities": row}, load=SHED_LOAD) is True
    assert (controller.admitted, controller.sheds) == (0, 1)


def test_admits_everything_below_the_engage_load():
    controller = AdmissionController()
    meta = {"probabilities": {"s-1": 0.01}}  # hopeless, but not engaged
    assert controller.should_shed(meta, load=SHED_LOAD - 0.01) is False
    assert controller.admitted == 1
    assert controller.sheds == 0


def test_sheds_hopeless_requests_once_engaged():
    controller = AdmissionController()
    doomed = {"probabilities": {"s-1": 0.1, "s-2": FLOOR_PROBABILITY - 0.1}}
    viable = {"probabilities": {"s-1": 0.1, "s-2": FLOOR_PROBABILITY + 0.1}}
    assert controller.should_shed(doomed, load=SHED_LOAD) is True
    assert controller.should_shed(viable, load=SHED_LOAD) is False
    assert (controller.admitted, controller.sheds) == (1, 1)


def test_a_request_exactly_at_the_floor_is_admitted():
    controller = AdmissionController()
    meta = {"probabilities": {"s-1": FLOOR_PROBABILITY}}
    assert controller.should_shed(meta, load=SHED_LOAD) is False


def test_modelless_decisions_are_always_admitted():
    controller = AdmissionController()
    # Bootstrap decisions carry no probabilities: without evidence of
    # hopelessness, shedding would be guessing.
    assert controller.should_shed({"bootstrap": True}, load=10.0) is False
    assert controller.admitted == 1
