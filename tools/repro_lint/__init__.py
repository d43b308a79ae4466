"""repro-lint: the repository's custom determinism/lifecycle lint pack.

Nine AST-based rules encode the invariants that keep the reproduction
deterministic and its request lifecycle auditable — properties a general
linter cannot know about:

* **RL001** — all randomness flows through ``repro.rng`` named streams:
  no stdlib ``random``, no ``np.random.seed``/``RandomState``, no ad-hoc
  ``np.random.default_rng`` outside ``src/repro/rng/``.
* **RL002** — the simulation layers tell time only through the sim
  clock: no ``time.time``/``time.monotonic``/``datetime.now`` inside
  ``sim/``, ``core/``, ``gateway/``, ``overload/``, ``health/``
  (``time.perf_counter`` is exempt: it measures host CPU overhead —
  RL007 keeps that measurement out of simulated runs).
* **RL003** — no bare float ``==``/``!=`` on pmf/time-valued
  expressions; compare with ``math.isclose``, ``DiscretePMF.allclose`` or
  the ``CDF_TOLERANCE`` constant of ``core/distribution.py``.
* **RL004** — the request-lifecycle books (``_requests``, ``_copy_of``,
  ``_probes``) are mutated only inside ``engine/book.py``, the module
  that defines ``RequestBook`` (the single-writer invariant the
  :class:`~repro.faultinject.auditor.LifecycleAuditor` relies on).
* **RL005** — hot-path dataclasses in ``net/message.py`` and
  ``sim/events.py`` must declare ``slots=True``.
* **RL006** — gateway handlers stamp on their host clock
  (``self.clock.now``), never ``sim.now``.
* **RL007** — ``experiments/``, ``workload/`` and ``faultinject/`` build
  ``DynamicSelectionPolicy`` with ``fixed_overhead_ms=`` (or
  ``compensate_overhead=False``), so no wall-clock ``δ`` enters a
  simulated deadline.
* **RL008** — ``DiscretePMF._derived``, the pmf construction that skips
  the constructor's sorting and sign/mass checks, is referenced only
  inside ``core/distribution.py``; everything else holds outside input
  and builds through ``DiscretePMF(...)`` / ``from_counts``.
* **RL009** — in ``gateway/``, ``group/``, ``net/``, ``replica/`` and
  ``engine/`` no loop over a set sends a message or arms a timer: the
  order would depend on ``PYTHONHASHSEED`` and leak into ``msg_id``s and
  same-instant event order.

Run as ``python -m repro_lint src/`` (exits non-zero on violations) or
through the pytest suite in ``tests/lint/``.  Suppress a finding with a
trailing ``# repro-lint: disable=RL00x (reason)`` comment; see
docs/STATIC_ANALYSIS.md for the full catalog and suppression policy.
"""

from .engine import (
    LintReport,
    Rule,
    Violation,
    check_source,
    iter_python_files,
    run_paths,
)
from .rules import ALL_RULES, rule_by_id

__all__ = [
    "ALL_RULES",
    "LintReport",
    "Rule",
    "Violation",
    "check_source",
    "iter_python_files",
    "rule_by_id",
    "run_paths",
]

__version__ = "1.0.0"
