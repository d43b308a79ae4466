"""Checks the runner self-test runs against each mutant of ``toy``."""

from toy import scale


def test_scale_keeps_its_argument():
    assert scale(3) == 3
