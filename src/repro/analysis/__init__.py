"""Post-run analyses: stage decomposition and model calibration."""

from .calibration import CalibrationBucket, brier_pairs, bucket_pairs, prediction_pairs
from .stages import RequestStages, extract_stages, stage_summaries

__all__ = [
    "RequestStages",
    "extract_stages",
    "stage_summaries",
    "CalibrationBucket",
    "prediction_pairs",
    "bucket_pairs",
    "brier_pairs",
]
