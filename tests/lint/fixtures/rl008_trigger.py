"""RL008 trigger: pmfs built from outside arrays without the constructor's checks."""

import numpy as np

from repro.core import distribution
from repro.core.distribution import DiscretePMF


def from_wire(values, probs):
    return DiscretePMF._derived(np.asarray(values), np.asarray(probs), None)


def dotted(values, probs, width):
    return distribution.DiscretePMF._derived(values, probs, width)


build = DiscretePMF._derived  # an alias is a reference all the same
