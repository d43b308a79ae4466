"""Unit tests for the admission controller (repro.overload.admission)."""

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


def test_modelless_decisions_are_always_admitted():
    controller = AdmissionController()
    # Bootstrap decisions carry no probabilities: without evidence of
    # hopelessness, shedding would be guessing.
    assert controller.should_shed({"bootstrap": True}, load=10.0) is False
    assert controller.admitted == 1
