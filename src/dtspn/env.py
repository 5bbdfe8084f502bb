"""DTSPN MDP simulator.

Exact-arc Dubins stepping over a discrete turn-rate action set, monotone
per-task sensing flags, common/privileged state encodings, and the two-part
reward R = R^I + R^G with the imitation term keyed to the distance from the
expert polyline.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dubins import Pose, normalize_angle
from .expert import ExpertPath
from .instance import Instance


@dataclass(frozen=True)
class EnvConfig:
    """Simulator constants."""

    turn_radius: float = 30.0
    omega_max: float = 0.6 * math.pi
    dt: float = 0.2
    n_actions: int = 7
    max_steps_eval: int = 300
    train_cutoff_dist: float = 60.0
    sense_substep: float = 5.0
    literal_goal_sum: bool = False

    def __post_init__(self):
        if self.n_actions < 2 or self.n_actions % 2 == 0:
            raise ValueError(f"n_actions must be odd and >= 3, got {self.n_actions}")

    @property
    def v(self) -> float:
        """Speed at which the extreme actions trace exactly the minimum
        turning circle."""
        return self.omega_max * self.turn_radius

    @property
    def step_dist(self) -> float:
        return self.v * self.dt

    @property
    def omegas(self) -> Tuple[float, ...]:
        n = self.n_actions
        return tuple(-self.omega_max + 2.0 * self.omega_max * (k / (n - 1))
                     for k in range(n))


def config_for(instance: Instance, config: Optional[EnvConfig]) -> EnvConfig:
    """config, or by default the one for the instance's turning radius."""
    if config is None:
        return EnvConfig(turn_radius=instance.turn_radius)
    return config


def advance(x, y, theta, omega, v, dt):
    """One exact kinematic step at constant turn rate (arc, not chord)."""
    if omega == 0.0:
        return x + v * dt * math.cos(theta), y + v * dt * math.sin(theta), theta
    t2 = theta + omega * dt
    r = v / omega
    return (x + r * (math.sin(t2) - math.sin(theta)),
            y - r * (math.cos(t2) - math.cos(theta)),
            t2)


def imitation_reward(r: float) -> float:
    """Penalty keyed to the distance r from the expert path.

    The middle branch is 0.1 - (r-5)^2/125, factored over the common
    denominator so the boundary values -0.1 (r=10) and -24.1 (r=60) land
    exactly on their decimal literals in double precision.
    """
    if r > 60.0:
        return -10.0
    if r > 5.0:
        return (12.5 - (r - 5.0) ** 2) / 125.0
    return 0.0


def goal_reward(newly_sensed: int, all_sensed: bool, n_tasks: int,
                literal: bool = False, total_sensed: Optional[int] = None) -> float:
    """Sensing reward: 10 on completing all tasks, 5 per newly sensed task on
    top of the 0.1 living bonus, else 0.1.

    With literal=True the middle branch pays 5 per *cumulative* sensed task on
    activation steps instead of 5 per newly sensed one.
    """
    if all_sensed:
        return 10.0
    if newly_sensed > 0:
        if literal:
            count = newly_sensed if total_sensed is None else total_sensed
            return 0.1 + 5.0 * count
        return 0.1 + 5.0 * newly_sensed
    return 0.1


@dataclass
class SimState:
    pose: Pose
    sensed: np.ndarray          # per-task uint8 flags, monotone within an episode
    t: int
    progress_idx: int


@dataclass
class Observation:
    common: np.ndarray
    privileged: Optional[np.ndarray] = None


@dataclass
class RewardBreakdown:
    imitation: float
    goal: float
    total: float
    r: float                    # distance to the expert polyline, nan without one
    newly_sensed: int


def encode_common(sim: SimState, instance: Instance) -> np.ndarray:
    """[p, per-task (dx, dy, bearing) in the body frame, sensed flags].

    Positions are normalized by map half-extents, angles by pi.  Body-frame
    task blocks make the encoding invariant to rigid world rotation.
    """
    pose = sim.pose
    hw, hh = 0.5 * instance.map_width, 0.5 * instance.map_height
    scale = max(hw, hh)
    out = np.empty(3 + 4 * instance.n_tasks)
    out[0] = (pose.x - hw) / hw
    out[1] = (pose.y - hh) / hh
    out[2] = pose.theta / math.pi
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    for i, (tx, ty) in enumerate(instance.tasks):
        dx, dy = tx - pose.x, ty - pose.y
        base = 3 + 3 * i
        out[base] = (c * dx + s * dy) / scale
        out[base + 1] = (-s * dx + c * dy) / scale
        if dx == 0.0 and dy == 0.0:
            out[base + 2] = 0.0
        else:
            out[base + 2] = normalize_angle(math.atan2(dy, dx) - pose.theta) / math.pi
    out[3 + 3 * instance.n_tasks:] = sim.sensed
    return out


PROGRESS_WINDOW = 8


def encode_privileged(sim: SimState, expert_path: ExpertPath,
                      instance: Instance) -> np.ndarray:
    """Next four expert waypoints, each as (dx, dy, dtheta) relative to the
    agent pose.  Advances progress_idx to the nearest waypoint in a short
    window ahead of the current one.  Monotone, and the window keeps a
    self-crossing tour from yanking progress across the crossing (waypoints
    are one env step apart, so the agent gains at most one index per step)."""
    wp = expert_path.waypoints
    pose = sim.pose
    xs = expert_path.waypoint_array()
    tail = xs[sim.progress_idx:sim.progress_idx + PROGRESS_WINDOW + 1]
    d = np.hypot(tail[:, 0] - pose.x, tail[:, 1] - pose.y)
    sim.progress_idx += int(np.argmin(d))

    scale = 0.5 * max(instance.map_width, instance.map_height)
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    out = np.empty(12)
    last = len(wp) - 1
    for slot in range(4):
        w = wp[min(sim.progress_idx + 1 + slot, last)]
        dx, dy = w.x - pose.x, w.y - pose.y
        out[3 * slot] = (c * dx + s * dy) / scale
        out[3 * slot + 1] = (-s * dx + c * dy) / scale
        out[3 * slot + 2] = normalize_angle(w.theta - pose.theta) / math.pi
    return out


class DtspnEnv:
    """Single-episode simulator.  mode 'train' terminates on the expert-path
    cutoff and requires an expert path; mode 'eval' caps the step count."""

    def __init__(self, instance: Instance, expert_path: Optional[ExpertPath] = None,
                 mode: str = "eval", config: Optional[EnvConfig] = None):
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if mode == "train" and expert_path is None:
            raise ValueError("train mode requires an expert path")
        config = config_for(instance, config)
        if abs(config.turn_radius - instance.turn_radius) > 1e-9:
            raise ValueError(
                f"config turn_radius {config.turn_radius} does not match "
                f"instance turn_radius {instance.turn_radius}")
        self.instance = instance
        self.expert_path = expert_path
        self.mode = mode
        self.config = config
        self._tasks = instance.task_array()
        self._sense2 = instance.r_sense ** 2
        if expert_path is not None:
            xs = expert_path.waypoint_array()
            self._wx, self._wy = xs[:, 0], xs[:, 1]
            self._sx = np.diff(self._wx)
            self._sy = np.diff(self._wy)
            self._slen2 = np.maximum(self._sx ** 2 + self._sy ** 2, 1e-30)
        self.state: Optional[SimState] = None
        self._finished = True

    @property
    def n_tasks(self) -> int:
        return self.instance.n_tasks

    def expert_distance(self, x: float, y: float) -> float:
        """Distance to the nearest point of the expert polyline (segments,
        not just vertices)."""
        if self.expert_path is None:
            return float("nan")
        if len(self._wx) == 1:
            return math.hypot(x - self._wx[0], y - self._wy[0])
        t = np.clip(((x - self._wx[:-1]) * self._sx +
                     (y - self._wy[:-1]) * self._sy) / self._slen2, 0.0, 1.0)
        dx = x - (self._wx[:-1] + t * self._sx)
        dy = y - (self._wy[:-1] + t * self._sy)
        return float(np.sqrt(np.min(dx * dx + dy * dy)))

    def _mark_sensed(self, pts) -> int:
        newly = 0
        sensed = self.state.sensed
        for px, py in pts:
            d2 = (self._tasks[:, 0] - px) ** 2 + (self._tasks[:, 1] - py) ** 2
            hit = d2 <= self._sense2
            for i in np.nonzero(hit & (sensed == 0))[0]:
                sensed[i] = 1
                newly += 1
        return newly

    def _observe(self) -> Observation:
        common = encode_common(self.state, self.instance)
        priv = None
        if self.expert_path is not None:
            priv = encode_privileged(self.state, self.expert_path, self.instance)
        return Observation(common=common, privileged=priv)

    def reset(self) -> Observation:
        start = self.instance.start
        heading = start.theta
        if self.expert_path is not None:
            heading = self.expert_path.waypoints[0].theta
        pose = Pose(start.x, start.y, heading)
        self.state = SimState(pose=pose,
                              sensed=np.zeros(self.n_tasks, dtype=np.uint8),
                              t=0, progress_idx=0)
        self._finished = False
        self._mark_sensed([(pose.x, pose.y)])
        if self.state.sensed.all():
            self._finished = True
        return self._observe()

    def step(self, action: int):
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        if self._finished:
            raise RuntimeError("episode is already done; call reset()")
        action = int(action)
        if not 0 <= action < self.config.n_actions:
            raise ValueError(f"action {action} out of range "
                             f"[0, {self.config.n_actions})")
        cfg = self.config
        omega = cfg.omegas[action]
        pose = self.state.pose

        n_sub = max(1, math.ceil(cfg.step_dist / cfg.sense_substep))
        pts = []
        for k in range(1, n_sub + 1):
            pts.append(advance(pose.x, pose.y, pose.theta, omega, cfg.v,
                               cfg.dt * (k / n_sub))[:2])
        x2, y2, th2 = advance(pose.x, pose.y, pose.theta, omega, cfg.v, cfg.dt)
        newly = self._mark_sensed(pts)
        self.state.pose = Pose(x2, y2, th2)
        self.state.t += 1

        all_sensed = bool(self.state.sensed.all())
        r_dist = self.expert_distance(x2, y2)
        r_im = imitation_reward(r_dist)
        r_goal = goal_reward(newly, all_sensed, self.n_tasks,
                             literal=cfg.literal_goal_sum,
                             total_sensed=int(self.state.sensed.sum()))
        reward = RewardBreakdown(imitation=r_im, goal=r_goal,
                                 total=r_im + r_goal, r=r_dist,
                                 newly_sensed=newly)

        done = all_sensed
        if self.mode == "train" and r_dist > cfg.train_cutoff_dist:
            done = True
        if self.mode == "eval" and self.state.t >= cfg.max_steps_eval:
            done = True
        self._finished = done
        info = {"t": self.state.t, "all_sensed": all_sensed,
                "pose": self.state.pose, "r": r_dist}
        return self._observe(), reward, done, info
