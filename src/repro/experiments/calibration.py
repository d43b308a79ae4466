"""Ablation A9 — calibration of the Equation 1 model.

The paper assumes replica response times are independent, arguing the
shared-network correlation is negligible on a LAN (§5.3).  This ablation
quantifies that argument: it compares the model's per-request predicted
probability ``P_K(t)`` against observed outcomes, on

* the paper's LAN (independent link jitter), and
* a LAN with *shared congestion* — a common switch adds the same
  Markov-modulated delay to every concurrent message, the situation where
  the first-reply race stops being a race of independents.

A calibrated model has observed ≈ predicted in every bucket; correlation
shows up as overconfidence (observed < predicted) in the high buckets.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..analysis.calibration import brier_pairs, bucket_pairs, prediction_pairs
from ..sim.random import Constant, MarkovModulated, Normal
from ..workload.scenarios import ScenarioConfig
from .harness import run_clients
from .registry import Cell, Experiment, Row, Table, cartesian

__all__ = ["REGIMES", "grid", "point", "calibration_rows", "EXPERIMENT"]

#: Regime label → whether the LAN has the shared congested switch.
REGIMES = {
    "independent (paper LAN)": False,
    "correlated (shared switch)": True,
}
MIN_PROBABILITY = 0.5


def _shared_congestion() -> MarkovModulated:
    """A shared switch that occasionally delays *everything* by ~30 ms."""
    return MarkovModulated(
        Constant(0.0),
        Normal(30.0, 8.0),
        p_enter_burst=0.02,
        p_exit_burst=0.10,
    )


def grid(
    deadlines_ms: Sequence[float] = (110.0, 130.0, 150.0, 180.0),
    num_requests: int = 50,
) -> Tuple[dict, ...]:
    """Both network regimes across the deadline sweep."""
    return cartesian(
        regime=REGIMES, deadline_ms=deadlines_ms, num_requests=[num_requests]
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, list]:
    """One single-client run; its ``(predicted P_K(t), timely)`` pairs."""
    _scenario, (client,) = run_clients(
        ScenarioConfig(
            seed=seed,
            shared_congestion=(
                _shared_congestion() if REGIMES[params["regime"]] else None
            ),
        ),
        1,
        params["deadline_ms"],
        MIN_PROBABILITY,
        params["num_requests"],
    )
    return {"pairs": prediction_pairs(client.outcomes)}


def calibration_rows(cells: Sequence[Cell]) -> List[Row]:
    """Per regime: predictions pooled over seeds and deadlines, bucketed."""
    rows = []
    for regime in REGIMES:
        runs_by_deadline = [
            runs for params, runs in cells if params["regime"] == regime
        ]
        # Seed-major pooling keeps the per-bucket float sums in the
        # order the published tables were computed in.
        pairs = [
            pair
            for repetition in zip(*runs_by_deadline)
            for run in repetition
            for pair in run["pairs"]
        ]
        buckets = bucket_pairs(pairs, num_buckets=10)
        for bucket in buckets:
            rows.append(
                {
                    "regime": regime,
                    "brier": brier_pairs(pairs),
                    "max_overconfidence": max(b.overconfidence for b in buckets),
                    "bucket": f"[{bucket.low:.1f}, {bucket.high:.1f})",
                    "count": bucket.count,
                    "mean_predicted": bucket.mean_predicted,
                    "observed_timely": bucket.observed_timely,
                    "overconfidence": bucket.overconfidence,
                }
            )
    return rows


EXPERIMENT = Experiment(
    key="A9",
    title="A9 model calibration",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(deadlines_ms=(130.0, 180.0), num_requests=25),
    quick_seeds=(0,),
    rows=calibration_rows,
    tables=(
        Table(
            "Model calibration — {regime} (Brier {brier:.4f})",
            (
                ("predicted bucket", "bucket"),
                ("n", "count"),
                ("mean predicted", "mean_predicted"),
                ("observed timely", "observed_timely"),
                ("overconfidence", "overconfidence"),
            ),
            split_by="regime",
        ),
    ),
)
