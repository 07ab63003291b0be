"""Small statistics helpers shared by metrics and experiments."""

from typing import Dict, List, Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not len(values):
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as sorted ``(value, fraction <= value)`` points."""
    if not len(values):
        return []
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    return [(float(v), (i + 1) / n) for i, v in enumerate(ordered)]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / percentiles / extrema summary of a sample."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("summary of empty sequence")
    return {
        "mean": float(array.mean()),
        "min": float(array.min()),
        "p10": float(np.percentile(array, 10)),
        "p50": float(np.percentile(array, 50)),
        "p90": float(np.percentile(array, 90)),
        "max": float(array.max()),
    }

