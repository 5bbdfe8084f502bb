import math

import numpy as np

from dtspn.dubins import Pose
from dtspn.env import (DtspnEnv, EnvConfig, SimState, advance, encode_common,
                       encode_privileged, goal_reward, imitation_reward)
from dtspn.expert import ExpertPath
from dtspn.instance import Instance, default_start, generate


def straight_expert(start: Pose, n: int, spacing: float) -> ExpertPath:
    wps = tuple(Pose(start.x + k * spacing, start.y, 0.0) for k in range(n))
    return ExpertPath(waypoints=wps, total_length=(n - 1) * spacing,
                      sensed_order=())


def small_instance(tasks, map_size=(200.0, 200.0), r_sense=50.0):
    w, h = map_size
    return Instance(map_width=w, map_height=h, tasks=tuple(tasks),
                    r_sense=r_sense, turn_radius=30.0,
                    start=default_start(w, h), seed=0)


def test_imitation_reward_exact_values():
    assert imitation_reward(0.0) == 0.0
    assert imitation_reward(3.0) == 0.0
    assert imitation_reward(5.0) == 0.0
    assert imitation_reward(10.0) == -0.1
    assert imitation_reward(60.0) == -24.1
    assert imitation_reward(61.0) == -10.0
    assert imitation_reward(1e9) == -10.0
    assert imitation_reward(float("nan")) == 0.0
    # smooth branch interior spot checks against the definition
    for r in (5.5, 7.0, 20.0, 35.0, 59.9):
        assert abs(imitation_reward(r) - (0.1 - (r - 5.0) ** 2 / 125.0)) < 1e-12


def test_imitation_reward_branch_shape():
    # the parabola branch starts at +0.1 just past the 5 m dead zone, crosses
    # zero near 8.54 m, and decreases monotonically out to the 60 m boundary
    assert abs(imitation_reward(5.0 + 1e-9) - 0.1) < 1e-8
    assert imitation_reward(8.5) > 0.0 > imitation_reward(8.6)
    prev = imitation_reward(5.0 + 1e-12)
    for r in np.linspace(5.001, 60.0, 400):
        cur = imitation_reward(float(r))
        assert cur <= prev + 1e-12
        prev = cur
    # the cutoff branch jumps back up by design (episode ends there in train)
    assert imitation_reward(60.0 + 1e-9) == -10.0


def test_goal_reward_exact_values():
    assert goal_reward(0, False, 5) == 0.1
    assert goal_reward(1, False, 5) == 5.1
    assert goal_reward(2, False, 5) == 10.1
    assert goal_reward(0, True, 5) == 10.0
    assert goal_reward(1, True, 5) == 10.0
    # literal cumulative-sum variant pays per sensed task on activation steps
    assert goal_reward(1, False, 5, literal=True, total_sensed=3) == 15.1
    assert goal_reward(0, False, 5, literal=True, total_sensed=3) == 0.1


def test_config_defaults_and_validation():
    cfg = EnvConfig()
    assert abs(cfg.v - 18.0 * math.pi) < 1e-12
    assert abs(cfg.step_dist - 3.6 * math.pi) < 1e-12
    om = cfg.omegas
    assert len(om) == 7
    assert om[3] == 0.0
    assert abs(om[0] + 0.6 * math.pi) < 1e-15
    assert abs(om[-1] - 0.6 * math.pi) < 1e-15
    for a, b in zip(om, om[1:]):
        assert b > a
    # speed is derived, so it cannot disagree with the turning radius
    assert EnvConfig(turn_radius=40.0).v == 0.6 * math.pi * 40.0
    try:
        EnvConfig(v=50.0)
        assert False, "speed accepted as an option"
    except TypeError:
        pass
    try:
        EnvConfig(n_actions=6)
        assert False, "even action count accepted"
    except ValueError:
        pass


def test_advance_straight_and_arc():
    x, y, th = advance(1.0, 2.0, 0.5, 0.0, 10.0, 0.2)
    assert abs(x - (1.0 + 2.0 * math.cos(0.5))) < 1e-12
    assert abs(y - (2.0 + 2.0 * math.sin(0.5))) < 1e-12
    assert th == 0.5

    # constant-rate turn is a rotation about the turning center
    cfg = EnvConfig()
    omega = cfg.omegas[-1]
    rho = cfg.v / omega
    x0, y0, th0 = 40.0, -7.0, 0.3
    cx, cy = x0 - rho * math.sin(th0), y0 + rho * math.cos(th0)
    x1, y1, th1 = advance(x0, y0, th0, omega, cfg.v, cfg.dt)
    assert abs(math.hypot(x1 - cx, y1 - cy) - rho) < 1e-9
    assert abs(th1 - (th0 + omega * cfg.dt)) < 1e-12
    chord = 2.0 * rho * math.sin(0.5 * omega * cfg.dt)
    assert abs(math.hypot(x1 - x0, y1 - y0) - chord) < 1e-9
    # fractional advances land on the same arc, full fraction matches exactly
    xf, yf, thf = advance(x0, y0, th0, omega, cfg.v, cfg.dt * 1.0)
    assert (xf, yf, thf) == (x1, y1, th1)


def test_env_straight_motion_and_heading():
    x = small_instance([(180.0, 180.0)])
    env = DtspnEnv(x, mode="eval")
    env.reset()
    p0 = env.state.pose
    env.step(3)
    p1 = env.state.pose
    assert p1.theta == p0.theta
    assert abs(p1.x - (p0.x + env.config.step_dist)) < 1e-12
    assert abs(p1.y - p0.y) < 1e-12


def test_sensing_is_monotone_and_marks_along_arc():
    # task sits near the first sub-sample point of a straight step, outside
    # sensing range of both endpoints
    start = default_start(200.0, 200.0)
    sub = start.x + 3.6 * math.pi / 3.0
    x = small_instance([(sub, start.y + 1.0)], r_sense=2.0)
    env = DtspnEnv(x, mode="eval")
    env.reset()
    assert env.state.sensed.sum() == 0
    _, rew, done, _ = env.step(3)
    assert rew.newly_sensed == 1
    assert done and rew.goal == 10.0

    # with sub-sampling disabled (one sample per step) the same task is missed
    coarse = EnvConfig(sense_substep=1e9)
    env2 = DtspnEnv(x, mode="eval", config=coarse)
    env2.reset()
    _, rew2, done2, _ = env2.step(3)
    assert rew2.newly_sensed == 0 and not done2


def test_sensed_flags_never_clear():
    x = generate(n_tasks=6, seed=3, map_size=(400.0, 400.0))
    env = DtspnEnv(x, mode="eval")
    env.reset()
    rng = np.random.default_rng(0)
    prev = env.state.sensed.copy()
    for _ in range(120):
        _, _, done, _ = env.step(int(rng.integers(7)))
        cur = env.state.sensed
        assert np.all(cur >= prev)
        prev = cur.copy()
        if done:
            break


def test_reward_decomposition_and_return_bound():
    x = generate(n_tasks=4, seed=11, map_size=(300.0, 300.0))
    env = DtspnEnv(x, mode="eval")
    rng = np.random.default_rng(5)
    for _ in range(3):
        env.reset()
        total_goal = 0.0
        steps = 0
        done = env._finished
        while not done:
            _, rew, done, _ = env.step(int(rng.integers(7)))
            assert rew.total == rew.imitation + rew.goal
            assert rew.imitation == 0.0  # no expert path attached
            total_goal += rew.goal
            steps += 1
        assert total_goal <= 0.1 * steps + 5.0 * x.n_tasks + 10.0 + 1e-9


def test_encode_common_layout_and_values():
    x = small_instance([(120.0, 140.0), (30.0, 60.0)])
    sim = SimState(pose=Pose(100.0, 100.0, 0.5 * math.pi),
                   sensed=np.array([1, 0], dtype=np.uint8), t=0, progress_idx=0)
    v = encode_common(sim, x)
    assert v.shape == (3 + 4 * 2,)
    assert v[0] == 0.0 and v[1] == 0.0
    assert abs(v[2] - 0.5) < 1e-12
    # first task: world delta (20, 40) seen from a pose facing +y
    assert abs(v[3] - 40.0 / 100.0) < 1e-12
    assert abs(v[4] - (-20.0 / 100.0)) < 1e-12
    bearing = math.atan2(40.0, 20.0) - 0.5 * math.pi
    assert abs(v[5] - bearing / math.pi) < 1e-12
    assert v[9] == 1.0 and v[10] == 0.0


def test_encode_common_rotation_invariance_of_task_blocks():
    rng = np.random.default_rng(42)
    w = h = 400.0
    for _ in range(20):
        cx, cy = 0.5 * w, 0.5 * h
        tasks = [(cx + rng.uniform(-80, 80), cy + rng.uniform(-80, 80))
                 for _ in range(3)]
        px, py = cx + rng.uniform(-80, 80), cy + rng.uniform(-80, 80)
        th = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(phi), math.sin(phi)

        def rot(ax, ay):
            return (cx + c * (ax - cx) - s * (ay - cy),
                    cy + s * (ax - cx) + c * (ay - cy))

        a = Instance(w, h, tuple(tasks), 50.0, 30.0, default_start(w, h), 0)
        b = Instance(w, h, tuple(rot(*t) for t in tasks), 50.0, 30.0,
                     default_start(w, h), 0)
        sensed = np.zeros(3, dtype=np.uint8)
        va = encode_common(SimState(Pose(px, py, th), sensed, 0, 0), a)
        rx, ry = rot(px, py)
        vb = encode_common(SimState(Pose(rx, ry, th + phi), sensed, 0, 0), b)
        assert np.allclose(va[3:], vb[3:], atol=1e-9)


def test_encode_privileged_straight_line_window():
    w = h = 400.0
    start = Pose(40.0, 40.0, 0.0)
    x = Instance(w, h, ((300.0, 300.0),), 50.0, 30.0, start, 0)
    path = straight_expert(start, 12, 10.0)
    sim = SimState(pose=Pose(start.x, start.y, 0.0),
                   sensed=np.zeros(1, dtype=np.uint8), t=0, progress_idx=0)
    v = encode_privileged(sim, path, x)
    assert v.shape == (12,)
    scale = 200.0
    for slot in range(4):
        assert abs(v[3 * slot] - 10.0 * (slot + 1) / scale) < 1e-12
        assert v[3 * slot + 1] == 0.0
        assert v[3 * slot + 2] == 0.0
    # near the end of the path the window clamps to the final waypoint
    sim2 = SimState(pose=Pose(start.x + 109.0, start.y, 0.0),
                    sensed=np.zeros(1, dtype=np.uint8), t=0, progress_idx=9)
    v2 = encode_privileged(sim2, path, x)
    assert sim2.progress_idx == 11
    assert np.allclose(v2[0::3], (110.0 - 109.0) / scale)
    # the search window is bounded: a far-ahead nearest waypoint is reached
    # over several updates, never in one jump
    sim3 = SimState(pose=Pose(start.x + 109.0, start.y, 0.0),
                    sensed=np.zeros(1, dtype=np.uint8), t=0, progress_idx=0)
    encode_privileged(sim3, path, x)
    assert sim3.progress_idx == 8
    encode_privileged(sim3, path, x)
    assert sim3.progress_idx == 11


def test_encode_privileged_progress_is_monotone():
    w = h = 400.0
    start = Pose(40.0, 40.0, 0.0)
    x = Instance(w, h, ((300.0, 300.0),), 50.0, 30.0, start, 0)
    path = straight_expert(start, 12, 10.0)
    # pose sits right on waypoint 2, but progress already reached 5
    sim = SimState(pose=Pose(start.x + 20.0, start.y, 0.0),
                   sensed=np.zeros(1, dtype=np.uint8), t=0, progress_idx=5)
    v = encode_privileged(sim, path, x)
    assert sim.progress_idx == 5
    assert abs(v[0] - (start.x + 60.0 - sim.pose.x) / 200.0) < 1e-12


def test_train_cutoff_and_eval_cap():
    w = h = 400.0
    start = Pose(200.0, 200.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    point_path = ExpertPath(waypoints=(Pose(200.0, 200.0, 0.0),),
                            total_length=0.0, sensed_order=())
    env = DtspnEnv(x, expert_path=point_path, mode="train")
    env.reset()
    done = False
    steps = 0
    while not done:
        _, rew, done, info = env.step(3)
        steps += 1
    # straight run leaves the 60 m tube after ceil(60 / step_dist) + 1 steps
    assert steps == 6
    assert rew.imitation == -10.0 and not info["all_sensed"]

    env2 = DtspnEnv(x, expert_path=point_path, mode="eval")
    env2.reset()
    done = False
    steps = 0
    while not done:
        _, rew, done, _ = env2.step(3)
        steps += 1
    assert steps == env2.config.max_steps_eval


def test_imitation_reward_follows_polyline_distance():
    w = h = 400.0
    start = Pose(50.0, 200.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    path = straight_expert(start, 30, 10.0)
    env = DtspnEnv(x, expert_path=path, mode="train")
    env.reset()
    # drift upward with a gentle left action; r should match point-to-segment
    # distance to the horizontal line y = 200 while x stays in [50, 340]
    for _ in range(4):
        _, rew, done, _ = env.step(4)
        p = env.state.pose
        if 50.0 <= p.x <= 340.0:
            assert abs(rew.r - abs(p.y - 200.0)) < 1e-9
        assert rew.imitation == imitation_reward(rew.r)
        if done:
            break


def test_expert_distance_projects_onto_segments():
    w = h = 400.0
    start = Pose(100.0, 100.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    path = ExpertPath(waypoints=(Pose(100.0, 100.0, 0.0),
                                 Pose(200.0, 100.0, 0.0)),
                      total_length=100.0, sensed_order=())
    env = DtspnEnv(x, expert_path=path, mode="eval")
    # midway above the segment: nearest vertex is ~58.3 away, the segment 30
    assert abs(env.expert_distance(150.0, 130.0) - 30.0) < 1e-12
    # beyond the last vertex the endpoint is nearest
    assert abs(env.expert_distance(260.0, 100.0) - 60.0) < 1e-12


def test_replay_is_bit_exact():
    x = generate(n_tasks=8, seed=21, map_size=(400.0, 400.0))
    rng = np.random.default_rng(9)
    actions = [int(rng.integers(7)) for _ in range(200)]

    def run():
        env = DtspnEnv(x, mode="eval")
        obs = [env.reset().common]
        rewards = []
        for a in actions:
            if env._finished:
                break
            o, rew, done, _ = env.step(a)
            obs.append(o.common)
            rewards.append(rew.total)
        return obs, rewards

    obs1, rew1 = run()
    obs2, rew2 = run()
    assert rew1 == rew2
    assert len(obs1) == len(obs2)
    for a, b in zip(obs1, obs2):
        assert a.tobytes() == b.tobytes()


def test_env_argument_errors():
    x = small_instance([(180.0, 180.0)])
    try:
        DtspnEnv(x, mode="demo")
        assert False, "bad mode accepted"
    except ValueError:
        pass
    try:
        DtspnEnv(x, mode="train")
        assert False, "train mode without expert accepted"
    except ValueError:
        pass
    try:
        DtspnEnv(x, mode="eval", config=EnvConfig(turn_radius=40.0))
        assert False, "mismatched turn radius accepted"
    except ValueError:
        pass
    env = DtspnEnv(x, mode="eval")
    try:
        env.step(3)
        assert False, "step before reset accepted"
    except RuntimeError:
        pass
    env.reset()
    try:
        env.step(7)
        assert False, "out-of-range action accepted"
    except ValueError:
        pass
    try:
        env.step(-1)
        assert False, "negative action accepted"
    except ValueError:
        pass


def test_step_after_done_raises():
    start = default_start(200.0, 200.0)
    x = small_instance([(start.x + 20.0, start.y)], r_sense=50.0)
    env = DtspnEnv(x, mode="eval")
    env.reset()
    # the single task is already within range of the start pose
    assert env._finished
    try:
        env.step(3)
        assert False, "step on finished episode accepted"
    except RuntimeError:
        pass
