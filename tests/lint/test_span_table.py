"""The end-to-end benchmark's span table still finds every name it wraps.

``benchmarks/e2e/spans.py`` wraps methods and module globals of ``src/``
(``estimator.batch_convolve``, ``DiscretePMF.convolve``, the transports,
…) through ``owner.__dict__[attr]``, so renaming or moving one of them
breaks the benchmark's per-layer split.  Entering and leaving
:func:`instrument` once finds that here, and names the missing attribute.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e import spans
from repro.core import distribution, estimator
from repro.sim import kernel


def test_every_wrapped_name_exists_and_is_put_back():
    run = kernel.Simulator.__dict__["run"]
    try:
        with spans.instrument(spans.SpanRecorder()):
            assert estimator.batch_convolve is not distribution.batch_convolve
    except (KeyError, AttributeError) as missing:
        pytest.fail(f"the span table wraps a name src/ no longer defines: {missing}")
    assert estimator.batch_convolve is distribution.batch_convolve
    assert kernel.Simulator.__dict__["run"] is run
