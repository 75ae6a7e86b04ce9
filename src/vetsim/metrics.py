"""Run-level metrics computed from a trajectory log.

All distance metrics work on the horizontal projection of the two robot
positions, which is what the overhead view of the experiment measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frames import Pose3, Pose6, RigidTransform, compose, invert, pose_from_transform
from .scenario import TrajectoryLog


class EmptyLog(ValueError):
    """The log is too short to evaluate (fewer than two records)."""


def projected_distance(pose_u: Pose6, pose_s: Pose3) -> float:
    """Horizontal separation between the two robots in metres."""
    return math.hypot(pose_u.x - pose_s.x, pose_u.y - pose_s.y)


def pose_from_observation(
    world_from_body_s: RigidTransform,
    body_from_camera_s: RigidTransform,
    camera_from_tag_su: RigidTransform,
    tag_mount: Optional[RigidTransform] = None,
) -> Pose6:
    """Recover the observed robot's world pose from a tag detection.

    Chains the observer's world pose, its camera mount and the estimated
    camera-from-tag transform, then strips the tag's own mounting offset.
    """
    world_from_tag = compose(
        compose(world_from_body_s, body_from_camera_s), camera_from_tag_su
    )
    if tag_mount is None:
        tag_mount = RigidTransform.identity()
    world_from_body = compose(world_from_tag, invert(tag_mount))
    return pose_from_transform(world_from_body)


def recovery_time(
    log: TrajectoryLog, threshold: float, perturbation_end: float
) -> Optional[float]:
    """Seconds after the perturbation until separation stays back below it.

    Recovery means the projected distance remains below the threshold for a
    contiguous two-second stretch; the returned value is the delay from the
    end of the perturbation to the start of that stretch. Returns 0.0 when
    the distance never exceeded the threshold afterwards, and None when no
    qualifying stretch exists before the log ends.
    """
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    start = int(np.searchsorted(log.t, perturbation_end - 1e-12))
    if start >= len(log.t):
        return None
    t = log.t[start:]
    below = log.proj_dist[start:] < threshold
    i = 0
    n = len(below)
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        if t[j] - t[i] >= 2.0 - 1e-9:
            return float(max(t[i] - perturbation_end, 0.0))
        i = j + 1
    return None


def mission_success(
    log: TrajectoryLog, threshold: float, transient: float = 10.0
) -> bool:
    """Every waypoint captured and separation bounded after the transient."""
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    if log.waypoints_captured < log.waypoints_total:
        return False
    mask = log.t >= transient - 1e-9
    if mask.any() and not bool(np.all(log.proj_dist[mask] < threshold)):
        return False
    return True


def settling_time(log: TrajectoryLog, fraction: float = 0.05) -> Optional[float]:
    """First time after which every command stays within fraction*bound.

    Scans the saturated total commands of both robots against per-axis
    bounds. Returns None when the commands are still active at the end of
    the log, and the start time when they never exceeded the band.
    """
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    bound_u = np.array(log.config.params_u.axis_bounds)
    bound_s = np.array(log.config.params_s.axis_bounds)
    viol = (np.abs(log.u_total_u) > fraction * bound_u).any(axis=1)
    viol |= (np.abs(log.u_total_s) > fraction * bound_s).any(axis=1)
    if not viol.any():
        return float(log.t[0])
    last = int(np.nonzero(viol)[0][-1])
    if last == len(log.t) - 1:
        return None
    return float(log.t[last + 1])


def time_of_los_loss(
    log: TrajectoryLog, min_duration: float = 1.0
) -> Optional[float]:
    """Start of the first sustained loss of the upward camera's detection."""
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    lost = ~log.detected_us
    i = 0
    n = len(lost)
    while i < n:
        if not lost[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and lost[j + 1]:
            j += 1
        if log.t[j] - log.t[i] >= min_duration - 1e-9:
            return float(log.t[i])
        i = j + 1
    return None


@dataclass(frozen=True)
class RunSummary:
    max_projected_distance: float
    time_of_los_loss: Optional[float]
    recovery_time_after_perturbation: Optional[float]
    mission_success: bool
    final_tether_state: Optional[float]
    settling_time: Optional[float]
    waypoints_captured: int
    waypoints_total: int

    def to_dict(self) -> dict:
        def _clean(v):
            if v is None:
                return None
            if isinstance(v, float) and math.isnan(v):
                return None
            return v

        return {
            "max_projected_distance": _clean(self.max_projected_distance),
            "time_of_los_loss": _clean(self.time_of_los_loss),
            "recovery_time_after_perturbation": _clean(
                self.recovery_time_after_perturbation
            ),
            "mission_success": self.mission_success,
            "final_tether_state": _clean(self.final_tether_state),
            "settling_time": _clean(self.settling_time),
            "waypoints_captured": self.waypoints_captured,
            "waypoints_total": self.waypoints_total,
        }


def summarize(
    log: TrajectoryLog, distance_threshold: float, transient: float = 10.0
) -> RunSummary:
    """Headline numbers for one run.

    The maximum separation ignores the start-up transient so the metric
    reflects steady behaviour, not the initial approach.
    """
    if len(log) < 2:
        raise EmptyLog("need at least two records")
    mask = log.t >= transient - 1e-9
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

    return RunSummary(
        max_projected_distance=max_dist,
        time_of_los_loss=time_of_los_loss(log),
        recovery_time_after_perturbation=recovery,
        mission_success=mission_success(log, distance_threshold, transient),
        final_tether_state=final_xi,
        settling_time=settling_time(log),
        waypoints_captured=log.waypoints_captured,
        waypoints_total=log.waypoints_total,
    )
