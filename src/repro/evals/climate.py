"""Climate-specific verification diagnostics.

Beyond the paper's image/regression metrics, operational downscaling is
judged on event skill: categorical skill for threshold exceedances
(precipitation above x mm/day), i.e. POD, FAR, CSI, frequency bias and
the equitable threat score.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "contingency_table",
    "event_skill",
]


def contingency_table(pred: np.ndarray, obs: np.ndarray, threshold: float
                      ) -> dict[str, int]:
    """Hits/misses/false alarms/correct negatives for an exceedance event."""
    p = np.asarray(pred) > threshold
    o = np.asarray(obs) > threshold
    if p.shape != o.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {o.shape}")
    return {
        "hits": int(np.sum(p & o)),
        "misses": int(np.sum(~p & o)),
        "false_alarms": int(np.sum(p & ~o)),
        "correct_negatives": int(np.sum(~p & ~o)),
    }


def event_skill(pred: np.ndarray, obs: np.ndarray, threshold: float
                ) -> dict[str, float]:
    """POD, FAR, CSI, frequency bias, and ETS for one event threshold.

    Conventions: POD = hits / (hits + misses); FAR = false alarms /
    (hits + false alarms); CSI = hits / (hits + misses + false alarms);
    frequency bias = predicted events / observed events; ETS corrects CSI
    for chance hits.  NaN-free: degenerate denominators return 0 (or 1
    for bias with no events on either side).
    """
    t = contingency_table(pred, obs, threshold)
    hits, misses, fa, cn = (t["hits"], t["misses"], t["false_alarms"],
                            t["correct_negatives"])
    n = hits + misses + fa + cn
    pod = hits / (hits + misses) if hits + misses else 0.0
    far = fa / (hits + fa) if hits + fa else 0.0
    csi = hits / (hits + misses + fa) if hits + misses + fa else 0.0
    obs_events = hits + misses
    pred_events = hits + fa
    if obs_events:
        bias = pred_events / obs_events
    else:
        bias = 1.0 if pred_events == 0 else float("inf")
    hits_random = (hits + misses) * (hits + fa) / n if n else 0.0
    denom = hits + misses + fa - hits_random
    ets = (hits - hits_random) / denom if denom > 0 else 0.0
    return {"pod": pod, "far": far, "csi": csi, "bias": bias, "ets": ets}
