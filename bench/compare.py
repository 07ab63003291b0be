"""Compare two reports written by ``bench/run.py --out``.

    python3 bench/compare.py PARENT.json CHANGE.json

One row per workload and end-to-end metric: both medians with their
quartiles, the change as a share of the parent's median, and a verdict.

* ``unresolved`` — the parent's own quartile distance exceeds the
  metric's bound, unless every run of one side beats every run of the
  other (then the direction is not in doubt);
* ``worse`` — the change's median is worse than the parent's by more
  than the bound in ``BENCHMARK.json``;
* ``better`` — its median is better by more than the parent's quartile
  distance and it wins at least nine tenths of all (parent run, change
  run) pairs, ties counting for neither;
* ``same`` — anything else.
"""

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], higher_is_better: bool, bound: float
) -> Tuple[str, float]:
    """The verdict and the change's median as a signed share of the parent's.

    The share is positive when the change is *worse*.
    """
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (c_median - p_median) / p_median
    spread = (p_q3 - p_q1) / p_median
    pairs = [(sign * (c - p)) for p in parent for c in change]
    change_wins = sum(1 for d in pairs if d < 0)
    parent_wins = sum(1 for d in pairs if d > 0)
    separated = change_wins == len(pairs) or parent_wins == len(pairs)
    if spread > bound and not separated:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread and change_wins >= WIN_SHARE * len(pairs):
        return "better", worse_by
    return "same", worse_by


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    rows = []
    for name, entry in parent["workloads"].items():
        other = change["workloads"].get(name)
        if other is None:
            rows.append(f"{name}: missing from the change's report")
            continue
        if entry["exact"] != other["exact"]:
            rows.append(f"{name}: exact-repeat records differ")
        for metric in CONTRACT["end_to_end"]:
            old, new = entry["metrics"][metric["name"]], other["metrics"][metric["name"]]
            p_q1, p_median, p_q3 = quartiles(old)
            c_q1, c_median, c_q3 = quartiles(new)
            word, worse_by = verdict(old, new, metric["better"] == "higher", metric["bound"])
            rows.append(
                f"{name:<13}{metric['name']:<16}{metric['unit']:<5}"
                f"parent {p_median:>11.4f} [{p_q1:.4f}, {p_q3:.4f}] n={len(old)}  "
                f"change {c_median:>11.4f} [{c_q1:.4f}, {c_q3:.4f}] n={len(new)}  "
                f"{'worse' if worse_by > 0 else 'better'} by {abs(worse_by):.2%} "
                f"of {p_median:.4f} (bound {metric['bound']:.0%})  {word}"
            )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(parent, change)
    print("\n".join(rows))
    return 1 if any(row.endswith("  worse") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
