"""Round-count bound expressions shared by the bench harness and the
regression tests.

``upper_rounds`` evaluates the per-protocol upper-bound expression; the
multiplicative constants in FITTED were calibrated once on sweeps of every
family at n <= 30 and are frozen here as regression bounds (they are not
re-fit at run time).  ``floor_rounds`` evaluates the matching information
floor with the explicit constants of the counting arguments.
"""

from __future__ import annotations

import math

from .multicast import lower_bound
from .waves import (
    _width_rounds,
    ceil_log2,
    collect_phase_len,
    election_len,
    estimate_len,
    msglen_phase_len,
)

# Frozen regression constants (calibrated at n <= 30, margin ~1.3x).
FITTED = {
    "dfs": 44.0,
    "gossip": 26.0,
    "gossip_d": 80.0,
    "mb_prov": 46.0,
    "mb_noprov": 90.0,
}


def dfs_bound(n: int, lhat: int) -> float:
    return FITTED["dfs"] * n * (max(1, ceil_log2(lhat)) + max(1, ceil_log2(n)))


def gossip_bound(n: int, p: int, lhat: int, d: int) -> float:
    return FITTED["gossip"] * n * (max(1, ceil_log2(lhat)) + p) + FITTED["gossip_d"] * (d + 1)


def mb_prov_bound(k: int, p: int, lhat: int, d: int) -> float:
    m = 2**p
    return FITTED["mb_prov"] * (
        k * math.log2(2 * lhat * m / k) + max(1, d) * max(1, ceil_log2(lhat))
    )


def mb_noprov_bound(k: int, p: int, lhat: int, d: int) -> float:
    m = 2**p
    core = k * math.log2(2 * m / k) if m > k else float(m)
    return FITTED["mb_noprov"] * (core + max(1, d) * max(1, ceil_log2(lhat)))


def upper_rounds(
    protocol: str,
    n: int,
    d: int,
    p: int = 1,
    lhat: int = 2,
    dhat: int | None = None,
    k: int = 1,
) -> float:
    """Upper-bound expression value for one run configuration."""
    dhat = dhat if dhat is not None else n
    dt_cap = 2 * d + 7
    if protocol == "broadcast":
        return _width_rounds(p) + d + 1
    if protocol == "elect":
        return election_len(ceil_log2(lhat), dhat)
    if protocol == "diameter":
        return estimate_len(dt_cap)
    if protocol == "collect":
        return estimate_len(dt_cap) + collect_phase_len(p, dt_cap)
    if protocol == "msglen":
        return estimate_len(dt_cap) + msglen_phase_len(p, dt_cap)
    if protocol == "dfs":
        return dfs_bound(n, lhat)
    if protocol == "gossip":
        return gossip_bound(n, p, lhat, d)
    if protocol == "mb-prov":
        return mb_prov_bound(k, p, lhat, d)
    if protocol == "mb-noprov":
        return mb_noprov_bound(k, p, lhat, d)
    raise ValueError(f"unknown protocol {protocol!r}")


def floor_rounds(protocol: str, d: int, l: int, m: int, k: int) -> int:
    """Information floor for one run configuration (0 when degenerate)."""
    if protocol == "broadcast":
        return lower_bound("broadcast", d, l, m, 1)
    if protocol in ("elect", "dfs", "diameter", "collect", "msglen"):
        return math.ceil(d / 2)
    if protocol == "gossip":
        return lower_bound("mbProv", d, l, m, k) if k > 1 else math.ceil(d / 2)
    if protocol == "mb-prov":
        return lower_bound("mbProv", d, l, m, k) if k > 1 else lower_bound("broadcast", d, l, m, 1)
    if protocol == "mb-noprov":
        if k > 1 and m > 1:
            return lower_bound("mbNoProv", d, l, m, k)
        return lower_bound("broadcast", d, l, m, 1)
    raise ValueError(f"unknown protocol {protocol!r}")
