"""RL008 clean: outside arrays go through the validating constructors."""

from repro.core.distribution import DiscretePMF


def from_wire(values, probs):
    return DiscretePMF(values, probs)


def from_histogram(counts):
    return DiscretePMF.from_counts(counts)


def derived(pmf, delay_ms):
    # Deriving from a pmf is the module's own business: ask it to.
    return pmf.shift(delay_ms).validated()
