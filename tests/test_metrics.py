"""Run-level metrics: distances, recovery timing, settling, pose recovery."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_geometry import as_flat, mount_matrix, pose_matrix, rotation
from vetsim.frames import RigidTransform, projected_distance
from vetsim.metrics import (
    EmptyLog,
    _first_stretch,
    mission_success,
    pose_from_observation,
    recovery_time,
    settling_time,
    summarize,
    time_of_los_loss,
)
from vetsim.config import Setpoints
from vetsim.log import TrajectoryLog, _runs, _transitions
from vetsim.scenario import preset
from vetsim.vehicle import Disturbance

FLIP_X = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))


def make_log(
    t,
    dist,
    detected=None,
    u_total_u=None,
    u_total_s=None,
    captured=0,
    total=0,
    perturbations=None,
    xi_us=None,
):
    """A minimal but structurally complete log for metric tests."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    cfg = dataclasses.replace(
        preset("nominal"),
        duration=float(t[-1]) if n else 0.0,
        planner=Setpoints(((0.0, 0.0, 0.0),) * total),
        perturbations=tuple(perturbations or ()),
    )
    dist = np.asarray(dist, dtype=float)
    if detected is None:
        detected = np.ones(n, dtype=bool)
    detected = np.asarray(detected, dtype=bool)
    pose_u = np.zeros((n, 6))
    pose_u[:, 0] = dist  # place the pair along x so proj_dist is consistent
    pose_u[:, 2] = -1.0
    return TrajectoryLog(
        config=cfg,
        t=t,
        pose_u=pose_u,
        pose_s=np.zeros((n, 3)),
        u_sub_u=np.zeros((n, 6)),
        u_xi_u=np.zeros((n, 6)),
        u_sub_s=np.zeros((n, 3)),
        u_xi_s=np.zeros((n, 3)),
        u_total_u=np.zeros((n, 6)) if u_total_u is None else np.asarray(u_total_u),
        u_total_s=np.zeros((n, 3)) if u_total_s is None else np.asarray(u_total_s),
        detected_us=detected,
        detected_su=detected.copy(),
        region_us=["safe" if d else "none" for d in detected],
        region_su=["safe" if d else "none" for d in detected],
        xi_us=np.zeros(n) if xi_us is None else np.asarray(xi_us, dtype=float),
        xi_su=np.zeros(n),
        proj_dist=dist,
        # the waypoint counts are read off the events
        event_flags=[";".join(["waypoint_capture"] * captured)] + [""] * (n - 1),
    )


def ramp(t_end, dt=0.1):
    return np.arange(0.0, t_end + dt / 2, dt)


# --- projected distance -----------------------------------------------------------

def test_projected_distance_anchors():
    u = (0.3, 0.4, -1.0, 0.0, 0.0, 0.0)
    s = (0.0, 0.0, 0.0)
    assert projected_distance(u, s) == pytest.approx(0.5)
    assert projected_distance((1.0, 2.0, -3.0, 0.0, 0.0, 0.0), (1.0, 2.0, 0.9)) == 0.0


@given(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
)
def test_projected_distance_is_a_metric(ax, ay, bx, by, cx, cy):
    def d(p, q):
        return projected_distance((p[0], p[1], -1.0, 0.0, 0.0, 0.0), (q[0], q[1], 0.0))

    a, b, c = (ax, ay), (bx, by), (cx, cy)
    assert d(a, b) >= 0.0
    assert d(a, b) == pytest.approx(d(b, a))
    assert d(a, c) <= d(a, b) + d(b, c) + 1e-9


# --- recovery ---------------------------------------------------------------------

def test_recovery_is_zero_when_never_exceeded():
    t = ramp(20.0)
    log = make_log(t, np.full(len(t), 0.2))
    assert recovery_time(log, 0.6, perturbation_end=5.0) == 0.0


def test_recovery_measures_the_return_below_threshold():
    t = ramp(20.0)
    dist = np.where((t > 5.0) & (t < 9.0), 1.0, 0.2)
    log = make_log(t, dist)
    assert recovery_time(log, 0.6, perturbation_end=6.0) == pytest.approx(3.1, abs=0.11)


def test_recovery_requires_two_sustained_seconds():
    t = ramp(20.0)
    # dips below the threshold only for one second at a time
    dist = np.where((t % 2.0) < 1.0, 1.0, 0.2)
    log = make_log(t, dist)
    assert recovery_time(log, 0.6, perturbation_end=5.0) is None


def test_recovery_none_when_formation_never_returns():
    t = ramp(20.0)
    dist = np.where(t > 5.0, 1.0, 0.2)
    log = make_log(t, dist)
    assert recovery_time(log, 0.6, perturbation_end=5.0) is None


def test_recovery_ignores_pre_perturbation_excursions():
    t = ramp(20.0)
    dist = np.where(t < 3.0, 1.0, 0.2)  # bad early, fine afterwards
    log = make_log(t, dist)
    assert recovery_time(log, 0.6, perturbation_end=5.0) == 0.0


# --- mission success --------------------------------------------------------------

def test_mission_requires_all_waypoints():
    t = ramp(30.0)
    log = make_log(t, np.full(len(t), 0.1), captured=7, total=8)
    assert not mission_success(log, 0.6)
    log = make_log(t, np.full(len(t), 0.1), captured=8, total=8)
    assert mission_success(log, 0.6)


def test_mission_fails_on_post_transient_separation():
    t = ramp(30.0)
    dist = np.where(t > 15.0, 0.7, 0.1)
    log = make_log(t, dist, captured=8, total=8)
    assert not mission_success(log, 0.6)


def test_mission_tolerates_the_initial_transient():
    t = ramp(30.0)
    dist = np.where(t < 5.0, 0.9, 0.1)  # the approach phase may be far
    log = make_log(t, dist, captured=8, total=8)
    assert mission_success(log, 0.6)


def test_empty_waypoint_mission_succeeds_vacuously():
    t = ramp(30.0)
    log = make_log(t, np.full(len(t), 0.1), captured=0, total=0)
    assert mission_success(log, 0.6)


# --- settling ---------------------------------------------------------------------

def test_settling_time_reports_the_first_quiet_tick():
    t = ramp(10.0)
    u = np.zeros((len(t), 6))
    u[t < 4.0, 0] = 0.09  # above five percent of the 0.1 bound
    log = make_log(t, np.full(len(t), 0.1), u_total_u=u)
    assert settling_time(log) == pytest.approx(4.0)


def test_settling_time_is_log_start_when_always_quiet():
    t = ramp(10.0)
    log = make_log(t, np.full(len(t), 0.1))
    assert settling_time(log) == 0.0


def test_settling_time_none_when_still_active_at_the_end():
    t = ramp(10.0)
    u = np.zeros((len(t), 3))
    u[:, 0] = 0.09
    log = make_log(t, np.full(len(t), 0.1), u_total_s=u)
    assert settling_time(log) is None


def test_settling_checks_both_robots():
    t = ramp(10.0)
    u_s = np.zeros((len(t), 3))
    u_s[t < 6.0, 2] = 0.05  # surface yaw command above 5% of 0.2
    log = make_log(t, np.full(len(t), 0.1), u_total_s=u_s)
    assert settling_time(log) == pytest.approx(6.0)


# --- line-of-sight loss --------------------------------------------------------------

def test_los_loss_reports_sustained_outages_only():
    t = ramp(20.0)
    detected = np.ones(len(t), dtype=bool)
    detected[(t >= 3.0) & (t < 3.4)] = False  # short blip, ignored
    detected[(t >= 8.0) & (t < 9.5)] = False  # sustained outage
    log = make_log(t, np.full(len(t), 0.1), detected=detected)
    assert time_of_los_loss(log) == pytest.approx(8.0)


def test_los_loss_none_when_detection_holds():
    t = ramp(20.0)
    log = make_log(t, np.full(len(t), 0.1))
    assert time_of_los_loss(log) is None


# --- runs of a per-tick flag ------------------------------------------------------------

MASKS = st.lists(st.booleans(), max_size=60).map(lambda m: np.array(m, dtype=bool))


def scan_runs(mask: list) -> tuple:
    """(starts, stops) of the runs of true ticks, found one tick at a time."""
    starts, stops = [], []
    for k, on in enumerate(mask):
        if on and (k == 0 or not mask[k - 1]):
            starts.append(k)
        if on and (k + 1 == len(mask) or not mask[k + 1]):
            stops.append(k + 1)
    return starts, stops


def shifted_transitions(mask, before_first, on, off):
    """(tick, event) pairs found by comparing each tick with the tick before
    it, tick 0 with before_first."""
    before = np.concatenate(([before_first], mask[:-1]))
    rises = [(k, on) for k in np.flatnonzero(mask & ~before).tolist()]
    falls = [(k, off) for k in np.flatnonzero(before & ~mask).tolist()] if off else []
    return rises + falls


def looped_first_stretch(t, flags, min_duration):
    """Start of the first run of true flags lasting min_duration seconds, or
    None, found by walking the flags one element at a time."""
    i, n = 0, len(flags)
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flags[j + 1]:
            j += 1
        if t[j] - t[i] >= min_duration - 1e-9:
            return i
        i = j + 1
    return None


@settings(max_examples=300)
@given(MASKS)
def test_runs_are_the_runs_a_scan_finds(mask):
    starts, stops = _runs(mask)
    assert (starts.tolist(), stops.tolist()) == scan_runs(mask.tolist())


@settings(max_examples=300)
@given(MASKS, st.booleans(), st.sampled_from(["", "off"]))
def test_transitions_match_the_shifted_compare(mask, at_start, off):
    # at_start=False is the line-of-sight rule: tick 0 compared with itself
    before_first = False if at_start else mask[:1].any()
    assert (_transitions(mask, "on", off, at_start=at_start)
            == shifted_transitions(mask, before_first, "on", off))


@settings(max_examples=300)
@given(MASKS, st.sampled_from([0.01, 0.02, 0.05, 0.1]),
       st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0, 2.0]))
def test_first_stretch_matches_the_loop(flags, dt, min_duration):
    t = np.arange(len(flags)) * dt
    assert _first_stretch(t, flags, min_duration) == looped_first_stretch(t, flags, min_duration)


# --- summary ---------------------------------------------------------------------------

def test_summary_aggregates_and_serialises():
    t = ramp(30.0)
    dist = np.where((t > 12.0) & (t < 14.0), 0.8, 0.1)
    log = make_log(
        t,
        dist,
        captured=1,
        total=1,
        perturbations=[Disturbance((-8.0, 0.0, 0.0), t_start=11.0, t_end=12.0)],
        xi_us=np.full(len(t), 7.5),
    )
    summary = summarize(log, 0.6)
    assert summary["max_projected_distance"] == pytest.approx(0.8)
    assert summary["recovery_time_after_perturbation"] == pytest.approx(2.1, abs=0.11)
    assert not summary["mission_success"]  # separation broke after the transient
    assert summary["final_tether_state"] == pytest.approx(7.5)
    assert summary["waypoints_captured"] == 1

    assert summary["time_of_los_loss"] is None
    assert list(summary) == [
        "max_projected_distance", "time_of_los_loss", "recovery_time_after_perturbation",
        "mission_success", "final_tether_state", "settling_time", "waypoints_captured",
        "waypoints_total",
    ]
    assert json.loads(json.dumps(summary)) == summary


def test_summary_without_perturbations_has_no_recovery_entry():
    t = ramp(15.0)
    log = make_log(t, np.full(len(t), 0.1))
    assert summarize(log, 0.6)["recovery_time_after_perturbation"] is None


def test_summary_is_a_pure_function_of_the_log():
    t = ramp(15.0)
    log = make_log(t, np.full(len(t), 0.1), captured=2, total=2)
    assert summarize(log, 0.6) == summarize(log, 0.6)


def test_short_logs_are_rejected():
    log = make_log([0.0], [0.1])
    with pytest.raises(EmptyLog):
        summarize(log, 0.6)
    with pytest.raises(EmptyLog):
        recovery_time(log, 0.6, 0.0)
    with pytest.raises(EmptyLog):
        settling_time(log)
    with pytest.raises(EmptyLog):
        time_of_los_loss(log)
    with pytest.raises(EmptyLog):
        mission_success(log, 0.6)


# --- pose recovery from a tag observation ------------------------------------------------

def test_identity_chain_gives_the_origin():
    ident = RigidTransform.identity().flat
    pose = pose_from_observation(ident, ident, ident)
    assert pose[:3] == (0.0, 0.0, 0.0)


def test_translation_chain_composes():
    step = (RigidTransform.identity().flat[0], (1.0, 0.0, 0.0))
    pose = pose_from_observation(step, step, step)
    assert pose[0] == pytest.approx(3.0)


def test_pose_recovery_round_trip_against_ground_truth():
    """Noiseless camera-from-tag measurements invert to the true pose."""
    rng = np.random.default_rng(21)
    cam_mount = RigidTransform(FLIP_X, (0.02, -0.01, -0.03))
    tag_mount = RigidTransform(RigidTransform.identity().rotation, (0.0, 0.05, 0.04))
    for _ in range(25):
        pose_s = (*rng.uniform(-2, 2, 2), rng.uniform(-math.pi, math.pi))
        true_u = (
            *rng.uniform(-2, 2, 2),
            rng.uniform(-2, -0.5),
            rng.uniform(-0.6, 0.6),
            rng.uniform(-0.6, 0.6),
            rng.uniform(-math.pi, math.pi),
        )
        # the noiseless measurement, from the homogeneous reference matrices
        world_from_tag = pose_matrix(true_u) @ mount_matrix(tag_mount)
        world_from_cam = pose_matrix(pose_s) @ mount_matrix(cam_mount)
        cam_from_tag = as_flat(np.linalg.inv(world_from_cam) @ world_from_tag)

        recovered = pose_from_observation(
            as_flat(pose_matrix(pose_s)), cam_mount.flat, cam_from_tag, tag_mount.flat
        )
        np.testing.assert_allclose(recovered[:3], true_u[:3], atol=1e-6)
        np.testing.assert_allclose(rotation(recovered), rotation(true_u), atol=1e-6)
