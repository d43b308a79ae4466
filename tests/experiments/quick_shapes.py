"""The paper's qualitative claims, asserted on each sweep's ``--quick`` rows.

``test_registry.py`` already runs every ``quick_grid`` for the 1-vs-N
check; these are the shape assertions of the former ``benchmarks/``
sweep twins that no other test in this package makes, rewritten for
those rows (so they cost no extra sweep).  A claim the quick grid is too
small to carry (A3 at l = 2 and 5, A5's budget at 4 clients and its
8-client rows) is held by the full-grid digest pin and the table in
EXPERIMENTS.md.

Where each twin's assertions live now::

    test_fig4_selection, test_fig5_failures  fig45 (+ TestFig45Shape: Pc=0 floor)
    test_min_response          TestMinResponseFloor
    test_policy_comparison     a1
    test_crash_tolerance       a2
    test_window_sensitivity    a3
    test_scalability           a5
    test_extensions            TestProbingShape, TestClassificationShape,
                               a8 + TestBurstyShape
    test_analysis              factors, a9, a10
    test_queue_scaling         a11
    test_colocation            a12 + TestColocationShape
    test_retransmission        a13 + TestRetransmissionShape
    test_adaptation_timeline   a14 + TestAdaptationTimelineShape

A16's capacity-bound columns (the formula; the ``censored`` rule is
``tests/overload/test_acceptance_a16.py``'s) are checked on its quick
rows; the bound itself is asserted on the full grid by
``--check-digests`` (20 requests per client are too few for steady
state: the quick 8-client row sits at 0.99 of its bound).
"""

from repro.experiments.overload_collapse import (
    DEADLINE_MS,
    NUM_REPLICAS,
    RESPONSE_TIMEOUT_FACTOR,
    SERVICE_MEAN_MS,
    THINK_MS,
)

BUDGET = 0.1  # the strict client's 1 − Pc


def _cells(rows, *keys):
    if len(keys) == 1:
        return {row[keys[0]]: row for row in rows}
    return {tuple(row[key] for key in keys): row for row in rows}


def fig45(rows):
    cell = _cells(rows, "min_probability", "deadline_ms")
    probabilities = sorted({pc for pc, _deadline in cell})
    deadlines = sorted({deadline for _pc, deadline in cell})
    for pc in probabilities:  # Fig. 4: fewer replicas as the deadline grows ...
        assert (
            cell[pc, deadlines[0]]["mean_redundancy"]
            >= cell[pc, deadlines[-1]]["mean_redundancy"]
        )
    for deadline in deadlines:  # ... and as the requested probability falls.
        assert (
            cell[probabilities[-1], deadline]["mean_redundancy"]
            >= cell[probabilities[0], deadline]["mean_redundancy"]
        )
    for row in rows:  # Fig. 5: every configuration stays within its budget.
        assert (
            row["failure_probability"]
            <= row["tolerated_failure_probability"] + 1e-9
        )


def factors(rows):
    share = {row["stage"]: row["share_of_total"] for row in rows}
    network = share["request-net"] + share["reply-net"]
    assert network < 0.15  # the paper's independence argument
    assert share["service"] + share["queueing"] + network > 0.9  # Equation 2


def a1(rows):
    by_policy = _cells(rows, "policy")
    dynamic = by_policy["dynamic (paper)"]
    assert dynamic["failure_probability"] <= BUDGET
    assert dynamic["mean_redundancy"] < by_policy["all-replicas"]["mean_redundancy"]
    assert BUDGET < min(  # single-replica baselines under-hedge
        by_policy[name]["failure_probability"]
        for name in ("single-fastest", "lowest-mean", "random-1")
    )


def a2(rows):
    by_policy = _cells(rows, "policy")
    paper = by_policy["dynamic (paper)"]
    assert paper["failure_probability"] <= BUDGET
    assert paper["timeout_fraction"] == 0.0  # the hedge masks the crash
    assert (
        by_policy["dynamic, 2-crash hedge"]["mean_redundancy"]
        >= paper["mean_redundancy"]
        >= by_policy["dynamic, no crash hedge"]["mean_redundancy"]
    )


def a3(rows):
    stationary = [row for row in rows if row["workload"] == "stationary"]
    widest = max(stationary, key=lambda row: row["window_size"])
    assert widest["failure_probability"] <= BUDGET


def a5(rows):
    cell = _cells(rows, "policy", "num_clients")
    clients = sorted({count for _policy, count in cell})
    for count in clients:  # send-to-all amplifies ~7x at every scale
        everyone = cell["all-replicas", count]["server_load_amplification"]
        assert everyone > 6.0
        assert cell["dynamic (paper)", count]["server_load_amplification"] < everyone
    assert cell["dynamic (paper)", clients[0]]["failure_probability"] <= BUDGET
    assert (  # under load it degrades more gracefully than no redundancy
        cell["dynamic (paper)", clients[-1]]["failure_probability"]
        < cell["single-fastest", clients[-1]]["failure_probability"]
    )


def a8(rows):
    base = _cells(rows, "variant")["last value (paper base)"]
    assert base["failure_probability"] <= BUDGET


def a9(rows):
    by_regime = _cells(rows, "regime")  # every bucket row repeats the summary
    independent = by_regime["independent (paper LAN)"]
    assert independent["brier"] < 0.12
    assert independent["max_overconfidence"] < 0.1
    assert by_regime["correlated (shared switch)"]["brier"] > independent["brier"]


def a10(rows):
    cell = _cells(rows, "policy", "loss_probability")
    assert cell["dynamic (paper)", 0.05]["failure_probability"] <= BUDGET
    assert (
        cell["single-fastest", 0.05]["failure_probability"]
        > cell["dynamic (paper)", 0.05]["failure_probability"]
    )


def a11(rows):
    cell = _cells(rows, "estimator", "num_clients")
    loaded = max(count for _estimator, count in cell)
    windowed = cell["windowed (paper)", loaded]
    scaled = cell["queue-scaled", loaded]
    assert scaled["mean_redundancy"] <= windowed["mean_redundancy"] + 0.2
    assert abs(scaled["failure_probability"] - windowed["failure_probability"]) < 0.1


def a12(rows):
    by_policy = _cells(rows, "policy")
    assert (
        by_policy["dynamic (paper)"]["failure_probability"]
        <= by_policy["random-2 (load-blind)"]["failure_probability"]
    )


def a13(rows):
    cell = _cells(rows, "strategy", "deadline_ms")
    dynamic = cell["dynamic (paper)", 140.0]
    assert dynamic["failure_probability"] <= BUDGET
    assert (
        cell["retransmit (related work)", 140.0]["failure_probability"]
        > dynamic["failure_probability"]
    )


def a14(rows):
    for bucket in rows:  # both policies keep serving until the crash at 10 s
        if bucket["start_ms"] < 10_000.0:
            assert bucket["requests"] > 0


def a16(rows):
    for row in rows:
        bound = (
            row["num_clients"] * row["mean_redundancy"] * SERVICE_MEAN_MS
            / NUM_REPLICAS - THINK_MS
        )
        assert row["bound_ms"] == bound
        assert bound < RESPONSE_TIMEOUT_FACTOR * DEADLINE_MS  # none censored
        assert row["response_over_bound"] == row["mean_response_ms"] / bound
        assert 0.0 < row["utilisation"] <= 1.0


SHAPES = {
    "fig45": fig45, "factors": factors, "A1": a1, "A2": a2, "A3": a3,
    "A5": a5, "A8": a8, "A9": a9, "A10": a10, "A11": a11, "A12": a12,
    "A13": a13, "A14": a14, "A16": a16,
}
