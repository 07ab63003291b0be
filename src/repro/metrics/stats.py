"""Small statistics helpers shared by metrics and experiments.

The figures were first computed with numpy, so each helper does numpy's
arithmetic in numpy's order and no figure moves: ``percentile`` is
``np.percentile``'s default linear method, ``cdf`` sorts like ``np.sort``
and ``summarize``'s mean is ``np.mean``'s pairwise sum.  The results are
equal bit for bit on samples without NaN (a zero's sign aside, where a
sample holds both 0.0 and -0.0).
"""

import math
from typing import Dict, List, Sequence, Tuple

#: numpy's pairwise summation adds blocks of at most this many values
#: with eight running sums
_BLOCK = 128


def _pairwise_sum(values: Sequence[float], start: int, count: int) -> float:
    """``values[start:start + count]`` summed as numpy's ``add.reduce``."""
    if count < 8:
        total = 0.0
        for i in range(start, start + count):
            total += values[i]
        return total
    if count <= _BLOCK:
        sums = list(values[start : start + 8])
        end = start + count - count % 8
        for block in range(start + 8, end, 8):
            for j in range(8):
                sums[j] += values[block + j]
        total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + (
            (sums[4] + sums[5]) + (sums[6] + sums[7])
        )
        for i in range(end, start + count):
            total += values[i]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, count - half
    )


def _sorted_floats(values: Sequence[float]) -> List[float]:
    return sorted(map(float, values))


def _percentile_of_sorted(ordered: List[float], q: float) -> float:
    """numpy's linear-method percentile of an ascending sample."""
    virtual = (len(ordered) - 1) * (q / 100)
    if virtual >= len(ordered) - 1:
        below = above = len(ordered) - 1
        # numpy marks the index past the end -1 and takes its weight
        # against that.
        weight = virtual + 1
    else:
        below = math.floor(virtual)
        above = below + 1
        weight = virtual - below
    a, b = ordered[below], ordered[above]
    step = b - a
    if weight >= 0.5:
        return b - step * (1 - weight)
    return a + step * weight


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not len(values):
        raise ValueError("percentile of empty sequence")
    return _percentile_of_sorted(_sorted_floats(values), q)


def cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as sorted ``(value, fraction <= value)`` points."""
    if not len(values):
        return []
    ordered = _sorted_floats(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / percentiles / extrema summary of a sample."""
    if not len(values):
        raise ValueError("summary of empty sequence")
    floats = [float(v) for v in values]
    ordered = sorted(floats)
    return {
        "mean": (0.0 + _pairwise_sum(floats, 0, len(floats))) / len(floats),
        "min": ordered[0],
        "p10": _percentile_of_sorted(ordered, 10),
        "p50": _percentile_of_sorted(ordered, 50),
        "p90": _percentile_of_sorted(ordered, 90),
        "max": ordered[-1],
    }
