"""Headline acceptance runs for the full experiment suite.

Each test prints a single PASS/FAIL line through the capture-disabled
stream so the verdicts are visible in any pytest invocation.
"""

import dataclasses
import inspect
import math
import time
from unittest import mock

import numpy as np

from vetsim.control import (
    DepthAttitudeState,
    VET_START,
    VetGains,
    camera_to_body,
    check_connectivity,
    subtask_control_underwater,
    vet_law,
)
from reference_geometry import as_flat, mount_matrix, pose_matrix, rotation
from test_scenario import csv_text
from vetsim.frames import (
    RigidTransform,
    euler_rate_rows,
    flat_transform,
    rotation_zyx,
    wrap_angle,
)
from vetsim.metrics import (
    mission_success,
    pose_from_observation,
    recovery_time,
)
from vetsim import perception
from vetsim.perception import UNSEEN, CameraModel, TagModel, observe, project_tag
from vetsim.scenario import preset, run
from vetsim.vehicle import VehicleParams, step_underwater

FLIP_X = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
ZERO = (0.0, 0.0, 0.0)
REGIONS = ("safe", "elastic", "danger")


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _command_bounds(cfg):
    pu, ps = cfg.params_u, cfg.params_s
    bound_u = np.array([pu.velocity_bound_linear] * 3 + [pu.velocity_bound_angular] * 3)
    bound_s = np.array([ps.velocity_bound_linear] * 2 + [ps.velocity_bound_angular])
    return bound_u, bound_s


def test_criterion_1_nominal_convergence(capsys):
    cfg = preset("nominal")
    t0 = time.perf_counter()
    log = run(cfg)
    wall = time.perf_counter() - t0

    bound_u, bound_s = _command_bounds(cfg)
    quiet = (np.abs(log.u_total_u) <= 0.05 * bound_u).all(axis=1)
    quiet &= (np.abs(log.u_total_s) <= 0.05 * bound_s).all(axis=1)
    quiet &= log.detected_us & log.detected_su
    with np.errstate(invalid="ignore"):
        quiet &= (log.xi_us <= 10.0) & (log.xi_su <= 10.0)

    violated = ~quiet
    if not violated.any():
        settled = float(log.t[0])
    elif violated[-1]:
        settled = None
    else:
        settled = float(log.t[int(np.nonzero(violated)[0][-1]) + 1])

    ok = settled is not None and settled <= 60.0 and wall < 5.0
    settled_text = "never" if settled is None else f"t={settled:.2f} s"
    _verdict(
        capsys, 1, ok,
        f"nominal settles (commands < 5% of bounds, tether < 10 px) at "
        f"{settled_text} (limit 60 s), {wall:.2f} s wall (limit 5 s)",
    )


def test_criterion_2_perturbation_ordering(capsys):
    ok = True
    parts = []
    for name, threshold in (("perturbation_sim", 0.6), ("perturbation_real", 0.3)):
        cfg_vet = preset(name)
        cfg_base = dataclasses.replace(cfg_vet, mode="baseline")
        t0 = time.perf_counter()
        log_vet = run(cfg_vet)
        log_base = run(cfg_base)
        wall = time.perf_counter() - t0

        onset = cfg_vet.perturbations[0].t_start
        end = cfg_vet.perturbations[0].t_end
        exceeded = np.nonzero(log_base.proj_dist > threshold)[0]
        base_breaks = bool(exceeded.size) and float(log_base.t[exceeded[0]]) <= onset + 10.0
        base_recovery = recovery_time(log_base, threshold, end)
        vet_recovery = recovery_time(log_vet, threshold, end)

        good = (
            base_breaks
            and base_recovery is None
            and vet_recovery is not None
            and vet_recovery <= 5.0
            and wall < 10.0
        )
        ok = ok and good
        vet_text = "none" if vet_recovery is None else f"{vet_recovery:.2f} s"
        parts.append(
            f"{name}@{threshold} m: baseline breaks={base_breaks} (no recovery: "
            f"{base_recovery is None}), tether recovers in {vet_text}, {wall:.1f} s wall"
        )
    _verdict(capsys, 2, ok, "; ".join(parts))


def test_criterion_3_navigation_formation_bound(capsys):
    cfg_vet = preset("navigation_sim")
    cfg_base = dataclasses.replace(cfg_vet, mode="baseline")
    t0 = time.perf_counter()
    log_vet = run(cfg_vet)
    log_base = run(cfg_base)
    wall = time.perf_counter() - t0

    mask = log_vet.t >= 10.0
    max_dist = float(np.max(log_vet.proj_dist[mask]))
    vet_complete = log_vet.waypoints_captured == log_vet.waypoints_total
    base_complete = log_base.waypoints_captured == log_base.waypoints_total

    ok = vet_complete and max_dist <= 0.3 and base_complete and wall < 30.0
    _verdict(
        capsys, 3, ok,
        f"lawnmower: tethered completes {log_vet.waypoints_captured}/"
        f"{log_vet.waypoints_total} at max separation {max_dist:.3f} m "
        f"(limit 0.3 m), baseline completes {log_base.waypoints_captured}/"
        f"{log_base.waypoints_total}, {wall:.1f} s wall (limit 30 s)",
    )


def test_criterion_4_dropout_robustness(capsys):
    cfg_vet = preset("navigation_real")
    cfg_base = dataclasses.replace(cfg_vet, mode="baseline")
    log_vet = run(cfg_vet)
    log_base = run(cfg_base)

    vet_ok = mission_success(log_vet, 0.6)
    base_failed = not mission_success(log_base, 0.6)
    first_window_end = cfg_vet.dropout.scheduled_windows[0][1]
    after = log_base.t >= first_window_end
    base_breaks = float(np.max(log_base.proj_dist[after])) > 0.6

    ok = vet_ok and base_failed and base_breaks
    _verdict(
        capsys, 4, ok,
        f"scheduled blackouts: tethered mission success={vet_ok}, baseline "
        f"fails={base_failed} with separation {np.max(log_base.proj_dist[after]):.2f} m "
        f"after the first window (> 0.6 m)",
    )


def _up_camera():
    return CameraModel(640, 480, 400.0, RigidTransform.identity())


def _check_rotations():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rot = np.reshape(rotation_zyx(*rng.uniform(-math.pi, math.pi, 3)), (3, 3))
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(rot) - 1.0) <= 1e-9


def _check_wrap():
    rng = np.random.default_rng(1)
    for a in rng.uniform(-20.0, 20.0, 300):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(wrap_angle(w) - w) <= 1e-12


def _check_region_partition():
    cam = _up_camera()
    for x in range(0, 641, 1):
        for y in range(0, 481, 7):
            _, _, region, _, _ = observe((float(x), float(y)), 48.0, 66.0, cam.flat)
            assert region in REGIONS
    for y in range(0, 481, 1):
        _, _, region, _, _ = observe((117.0, float(y)), 48.0, 66.0, cam.flat)
        assert region in REGIONS


def _check_translation_invariance():
    # the mean side and diagonal project_tag measures do not change as the
    # camera slides parallel to the tag (up to 140 px of image shift)
    cam, tag_s = _up_camera(), TagModel(0.1, RigidTransform(FLIP_X, ZERO))
    tf_s = flat_transform((0.0, 0.0, 0.0))
    sizes = []

    def measure(center, l_bar, h_bar, cam):
        sizes.append((l_bar, h_bar))

    rng = np.random.default_rng(2)
    with mock.patch.object(perception, "observe", measure):
        project_tag(flat_transform((0.0, 0.0, -1.0, 0.0, 0.0, 0.0)), tf_s, cam.flat, tag_s.flat)
        for _ in range(50):
            dx, dy = rng.uniform(-0.35, 0.35, 2)
            project_tag(flat_transform((dx, dy, -1.0, 0.0, 0.0, 0.0)), tf_s, cam.flat, tag_s.flat)
    (l0, h0), *moved = sizes
    assert len(moved) == 50
    for l1, h1 in moved:
        assert abs(l1 - l0) <= 1e-9 and abs(h1 - h0) <= 1e-9


def _underwater_params():
    return preset("nominal").params_u


def _step(params, pose, nu, dt, command=(0.0,) * 6, wrench=None):
    """step_underwater on params' flat form from a pose tuple under the
    sub-task command `command`, a zero tether command and the world (force,
    torque) wrench, with the rotation and Euler-rate rows a simulation tick
    computes for it."""
    rates = euler_rate_rows(pose[3], pose[4])
    return step_underwater(pose, nu, command, [0.0] * 6, dt, flat_transform(pose)[0], rates,
                           wrench, params.flat)


def _check_passivity():
    params = _underwater_params()
    mass = np.asarray(params.mass)
    rng = np.random.default_rng(3)
    pose = (0.0, 0.0, -1.0, 0.05, -0.1, 0.4)
    for _ in range(200):
        nu = rng.uniform(-0.3, 0.3, 6)
        _, nu2 = _step(params, pose, nu.tolist(), 0.02)
        before = 0.5 * float(nu @ (mass * nu))
        after = 0.5 * float(nu2 @ (mass * nu2))
        assert after <= before + 1e-12


def _check_velocity_bound():
    params = _underwater_params()
    # forcing far past what a command can give, as a world force: at the zero
    # attitude it starts from, it is the body wrench (80, 50, 20, 0, 0, 0)
    pose = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    nu = np.zeros(6).tolist()
    for _ in range(20):
        pose, nu = _step(params, pose, nu, 0.02, wrench=((80.0, 50.0, 20.0), (0.0, 0.0, 0.0)))
        assert np.linalg.norm(nu[:3]) <= params.velocity_bound_linear + 1e-12


def _check_zero_at_center():
    # a 40 px square tag image centred in the frame
    obs = observe((320.0, 240.0), 40.0, math.hypot(40.0, 40.0), _up_camera().flat)
    cmd, _, _ = vet_law(obs, 0.0, 0.0, VET_START, VetGains().flat, _up_camera().flat)
    assert np.all(np.abs(cmd) <= 1e-9)


def _check_direction_symmetry():
    cam_u = _up_camera()
    cam_s = CameraModel(640, 480, 400.0, RigidTransform(FLIP_X, ZERO))
    tag_u = TagModel(0.1, RigidTransform.identity())
    tag_s = TagModel(0.1, RigidTransform(FLIP_X, ZERO))
    gains = VetGains()
    rng = np.random.default_rng(4)
    for _ in range(40):
        r, bearing, heading = rng.uniform(0.25, 0.45), rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        dx, dy = r * math.cos(bearing), r * math.sin(bearing)
        tf_u = flat_transform((dx, dy, -1.0, 0.0, 0.0, heading))
        tf_s = flat_transform((0.0, 0.0, heading))
        obs_us, yaw_us = project_tag(tf_u, tf_s, cam_u.flat, tag_s.flat)
        obs_su, yaw_su = project_tag(tf_s, tf_u, cam_s.flat, tag_u.flat)
        if obs_us is UNSEEN or obs_su is UNSEEN:
            continue
        cmd_us, _, _ = vet_law(obs_us, yaw_us, 0.0, VET_START, gains.flat, cam_u.flat)
        cmd_su, _, _ = vet_law(obs_su, yaw_su, 0.0, VET_START, gains.flat, cam_s.flat)
        c, s = math.cos(heading), math.sin(heading)
        rot = np.array([[c, -s], [s, c]])
        world_u = rot @ camera_to_body(cmd_us, cam_u.mount.flat[0], 6)[:2]
        world_s = rot @ camera_to_body(cmd_su, cam_s.mount.flat[0], 3)[:2]
        nu_, ns_ = np.linalg.norm(world_u), np.linalg.norm(world_s)
        if nu_ < 1e-9:
            continue
        cosine = float(world_u @ world_s) / (nu_ * ns_)
        assert abs(cosine + 1.0) <= 1e-3


def _check_elastic_decay():
    cam = _up_camera()
    tag_s = TagModel(0.1, RigidTransform(FLIP_X, ZERO))
    gains = VetGains()
    state = VET_START
    x, dt = 0.5, 0.02
    last_xi = math.inf
    region = None
    for k in range(1200):
        tf_u = flat_transform((x, 0.0, -1.0, 0.0, 0.0, 0.0))
        obs, yaw = project_tag(tf_u, flat_transform((0.0, 0.0, 0.0)), cam.flat, tag_s.flat)
        _, _, region, _, xi = obs
        assert xi <= last_xi + 1e-9
        last_xi = xi
        cmd, _, state = vet_law(obs, yaw, k * dt, state, gains.flat, cam.flat)
        x += dt * float(cmd[0])
    assert region == "safe"


def _check_connectivity_residual():
    ident = RigidTransform.identity().flat
    flip = RigidTransform(FLIP_X, ZERO).flat
    pose_u = (0.2, 0.1, -1.0, 0.0, 0.0, 1.1)
    residual = check_connectivity(ident, ident, flip, flip, pose_u, (0.0, 0.0, -0.4))
    assert residual <= 1e-12


def _check_pnp_round_trip():
    rng = np.random.default_rng(5)
    cam_mount = RigidTransform(FLIP_X, ZERO)
    # rotated and offset along the flip axis, so the mount is not its own
    # inverse and a recovery that skips the inversion fails
    tag_mount = RigidTransform(FLIP_X, (0.05, 0.0, 0.0))
    for _ in range(25):
        pose_s = (*rng.uniform(-2, 2, 2), rng.uniform(-math.pi, math.pi))
        true_u = (
            *rng.uniform(-2, 2, 2), rng.uniform(-2, -0.5),
            rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-math.pi, math.pi),
        )
        world_from_cam = pose_matrix(pose_s) @ mount_matrix(cam_mount)
        cam_from_tag = np.linalg.inv(world_from_cam) @ pose_matrix(true_u) @ mount_matrix(tag_mount)
        recovered = pose_from_observation(
            as_flat(pose_matrix(pose_s)), cam_mount.flat, as_flat(cam_from_tag), tag_mount.flat
        )
        assert np.allclose(recovered[:3], true_u[:3], atol=1e-6)
        assert np.allclose(rotation(recovered), rotation(true_u), atol=1e-6)


def _check_determinism():
    cfg_a = dataclasses.replace(preset("nominal"), duration=2.0)
    cfg_b = dataclasses.replace(preset("nominal"), duration=2.0)
    assert csv_text(run(cfg_a)) == csv_text(run(cfg_b))


def _check_communication_denial():
    names = set(DepthAttitudeState._fields)
    assert names == {"z", "phi", "theta", "dz", "dphi", "dtheta"}
    assert len([n for n in names if not n.startswith("d")]) == 3
    assert list(inspect.signature(subtask_control_underwater).parameters) == [
        "measured", "target", "gains",
    ]


def test_criterion_5_property_suite(capsys):
    checks = [
        ("rotation orthonormality", _check_rotations),
        ("wrap idempotence", _check_wrap),
        ("region partition", _check_region_partition),
        ("tag translation invariance", _check_translation_invariance),
        ("passivity", _check_passivity),
        ("velocity bound", _check_velocity_bound),
        ("zero at centre", _check_zero_at_center),
        ("direction symmetry", _check_direction_symmetry),
        ("elastic decay", _check_elastic_decay),
        ("connectivity residual", _check_connectivity_residual),
        ("pose round trip", _check_pnp_round_trip),
        ("determinism", _check_determinism),
        ("communication denial", _check_communication_denial),
    ]
    failed = []
    for name, fn in checks:
        try:
            fn()
        except AssertionError:
            failed.append(name)
    ok = not failed
    detail = (
        f"all {len(checks)} property checks hold"
        if ok
        else "failing properties: " + ", ".join(failed)
    )
    _verdict(capsys, 5, ok, detail)


def _integrate_final_pose(dt: float) -> np.ndarray:
    params = _underwater_params()
    pose = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    nu = np.zeros(6).tolist()
    steps = int(round(10.0 / dt))
    for k in range(steps):
        t = k * dt
        tau = np.array(
            [
                0.30 * math.sin(2.0 * math.pi * 0.3 * t),
                0.25 * math.sin(2.0 * math.pi * 0.5 * t + 0.4),
                0.20 * math.sin(2.0 * math.pi * 0.7 * t + 0.9),
                0.004 * math.sin(2.0 * math.pi * 0.4 * t),
                0.005 * math.sin(2.0 * math.pi * 0.6 * t + 0.7),
                0.006 * math.sin(2.0 * math.pi * 0.5 * t + 1.3),
            ]
        )
        # the command the thrust gain scales to tau, within every bound
        pose, nu = _step(params, pose, nu, dt, (tau / params.thrust_gain).tolist())
    return np.array(pose)


def test_criterion_6_integrator_order(capsys):
    reference = _integrate_final_pose(0.02 / 64.0)
    err_full = np.linalg.norm(_integrate_final_pose(0.02) - reference)
    err_half = np.linalg.norm(_integrate_final_pose(0.01) - reference)
    ratio = err_full / err_half
    ok = 1.5 <= ratio <= 2.5
    _verdict(
        capsys, 6, ok,
        f"halving dt shrinks the final-pose error by x{ratio:.2f} "
        f"(first order band [1.5, 2.5])",
    )
