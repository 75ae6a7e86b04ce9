"""Run-level metrics computed from a trajectory log.

All distance metrics work on the horizontal projection of the two robot
positions, which is what the overhead view of the experiment measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .frames import compose, invert, pose_from_transform
from .log import TrajectoryLog, _runs


# The summary's fixed rules, in seconds but the band
_TRANSIENT = 10.0  # the start-up transient, which the separation checks ignore
_SETTLING_BAND = 0.05  # settled commands stay within this fraction of their bounds
_LOS_LOSS_S = 1.0  # a detection gap this long loses the line of sight
_RECOVERY_HOLD_S = 2.0  # recovered separation stays below the threshold this long


class EmptyLog(ValueError):
    """The log is too short to evaluate (fewer than two records)."""


def pose_from_observation(
    world_from_body_s: tuple,
    body_from_camera_s: tuple,
    camera_from_tag_su: tuple,
    tag_mount: Optional[tuple] = None,
) -> tuple:
    """Recover the observed robot's world pose tuple (x, y, z, phi, theta,
    psi) from a tag detection; every argument is a flat transform.

    Chains the observer's world pose, its camera mount and the estimated
    camera-from-tag transform, then strips the tag's own mounting offset.
    """
    world_from_tag = compose(
        compose(world_from_body_s, body_from_camera_s), camera_from_tag_su
    )
    if tag_mount is None:
        return pose_from_transform(world_from_tag)
    return pose_from_transform(compose(world_from_tag, invert(tag_mount)))


def recovery_time(
    log: TrajectoryLog, threshold: float, perturbation_end: float
) -> Optional[float]:
    """Seconds after the perturbation until separation stays back below it.

    Recovery means the projected distance remains below the threshold for a
    contiguous _RECOVERY_HOLD_S stretch; the returned value is the delay from
    the end of the perturbation to the start of that stretch. Returns 0.0 when
    the distance never exceeded the threshold afterwards, and None when no
    qualifying stretch exists before the log ends.
    """
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    start = int(np.searchsorted(log.t, perturbation_end - 1e-12))
    if start >= len(log.t):
        return None
    t = log.t[start:]
    i = _first_stretch(t, log.proj_dist[start:] < threshold, _RECOVERY_HOLD_S)
    return None if i is None else float(max(t[i] - perturbation_end, 0.0))


def _first_stretch(t: np.ndarray, flags: np.ndarray, min_duration: float) -> Optional[int]:
    """Index where the first contiguous run of true flags that lasts at least
    min_duration seconds starts, or None."""
    starts, stops = _runs(flags)
    long = np.flatnonzero(t[stops - 1] - t[starts] >= min_duration - 1e-9)
    return int(starts[long[0]]) if long.size else None


def mission_success(log: TrajectoryLog, threshold: float) -> bool:
    """Every waypoint captured and separation below threshold after _TRANSIENT."""
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    if log.waypoints_captured < log.waypoints_total:
        return False
    mask = log.t >= _TRANSIENT - 1e-9
    if mask.any() and not bool(np.all(log.proj_dist[mask] < threshold)):
        return False
    return True


def settling_time(log: TrajectoryLog) -> Optional[float]:
    """First time after which every command stays within _SETTLING_BAND of its bound.

    Scans the saturated total commands of both robots against per-axis
    bounds. Returns None when the commands are still active at the end of
    the log, and the start time when they never exceeded the band.
    """
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    bound_u = np.array(log.config.params_u.axis_bounds)
    bound_s = np.array(log.config.params_s.axis_bounds)
    viol = (np.abs(log.u_total_u) > _SETTLING_BAND * bound_u).any(axis=1)
    viol |= (np.abs(log.u_total_s) > _SETTLING_BAND * bound_s).any(axis=1)
    if not viol.any():
        return float(log.t[0])
    last = int(np.nonzero(viol)[0][-1])
    if last == len(log.t) - 1:
        return None
    return float(log.t[last + 1])


def time_of_los_loss(log: TrajectoryLog) -> Optional[float]:
    """Start of the first _LOS_LOSS_S loss of the upward camera's detection."""
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    i = _first_stretch(log.t, ~log.detected_us, _LOS_LOSS_S)
    return None if i is None else float(log.t[i])


def summarize(log: TrajectoryLog, distance_threshold: float) -> dict:
    """Headline numbers for one run, under the summary's fixed rules (above),
    as a dict of plain Python values that json.dumps writes as they are.

    The maximum separation ignores the start-up transient so the metric
    reflects steady behaviour, not the initial approach.
    """
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    mask = log.t >= _TRANSIENT - 1e-9
    if mask.any():
        max_dist = float(np.max(log.proj_dist[mask]))
    else:
        max_dist = float(np.max(log.proj_dist))

    recovery: Optional[float] = None
    if log.config.perturbations:
        pert_end = max(d.t_end for d in log.config.perturbations)
        recovery = recovery_time(log, distance_threshold, pert_end)

    final_xi: Optional[float] = None
    detected_idx = np.nonzero(log.detected_us)[0]
    if detected_idx.size:
        final_xi = float(log.xi_us[detected_idx[-1]])

    return {
        "max_projected_distance": max_dist,
        "time_of_los_loss": time_of_los_loss(log),
        "recovery_time_after_perturbation": recovery,
        "mission_success": mission_success(log, distance_threshold),
        "final_tether_state": final_xi,
        "settling_time": settling_time(log),
        "waypoints_captured": log.waypoints_captured,
        "waypoints_total": log.waypoints_total,
    }
