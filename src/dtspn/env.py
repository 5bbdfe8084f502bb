"""DTSPN MDP simulator.

Exact-arc Dubins stepping over a discrete turn-rate action set, monotone
per-task sensing flags, common/privileged state encodings, the two-part
reward R = R^I + R^G with the imitation term keyed to the distance from the
expert polyline, and the episode loop every caller but PPO rolls through.

One kernel, EnvBatch, steps E envs in lockstep; DtspnEnv describes one
env and owns its one-row batch, which run_episode rolls.  Per row, the
kinematics, the sensing test, the encodings and the rewards run as one
pass over Python floats, which for the few rows and tasks here costs less
than numpy calls and keeps the scalar rounding (math's sin, cos and atan2,
Python's pow) they were defined with.  So the state is Python lists, one
entry per env, and a step builds arrays only for their consumers: the
observations for the networks and, with expert paths, the points whose
distance to the polyline (hundreds of segments per row) runs as array
operations over all rows.  A row is byte-identical to a one-env run.
"""

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from .dubins import TWO_PI, advance, normalize_angle
from .instance import DEFAULT_TURN, Instance, positive_finite

if TYPE_CHECKING:           # expert imports config_for from here
    from .expert import ExpertPath


@dataclass(frozen=True)
class EnvConfig:
    """Simulator constants."""

    turn_radius: float = DEFAULT_TURN
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
        for name in ("turn_radius", "omega_max", "dt", "sense_substep"):
            positive_finite(name, getattr(self, name))
        for name, low in (("max_steps_eval", 1), ("train_cutoff_dist", 0.0)):
            if not getattr(self, name) >= low:    # NaN fails too
                raise ValueError(f"{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")

    @property
    def v(self) -> float:
        """Speed at which the extreme actions trace exactly the minimum
        turning circle."""
        return self.omega_max * self.turn_radius

    @property
    def step_dist(self) -> float:
        return self.v * self.dt

    @cached_property
    def omegas(self) -> Tuple[float, ...]:
        """Turn rate of each action (computed once)."""
        n = self.n_actions
        return tuple(-self.omega_max + 2.0 * self.omega_max * (k / (n - 1))
                     for k in range(n))

    @cached_property
    def substeps(self) -> Tuple[float, ...]:
        """Elapsed time at each sensing substep of a step, the last dt
        exactly (computed once)."""
        n_sub = max(1, math.ceil(self.step_dist / self.sense_substep))
        return tuple(self.dt * (k / n_sub) for k in range(1, n_sub + 1))


def config_for(instance: Instance, config: Optional[EnvConfig]) -> EnvConfig:
    """The config instance runs under: config, or by default the one for
    the instance's turning radius.  Raises ValueError if config's turning
    radius is not the instance's."""
    if config is None:
        return EnvConfig(turn_radius=instance.turn_radius)
    if abs(config.turn_radius - instance.turn_radius) > 1e-9:
        raise ValueError(
            f"config turn_radius {config.turn_radius} does not match "
            f"instance turn_radius {instance.turn_radius}")
    return config


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


def goal_reward(newly_sensed: int, all_sensed: bool,
                total_sensed: Optional[int] = None) -> float:
    """Sensing reward: 10 on completing all tasks, 5 per newly sensed task on
    top of the 0.1 living bonus, else 0.1.

    Given total_sensed (the literal_goal_sum variant), the middle branch
    pays 5 per *cumulative* sensed task on activation steps instead.
    """
    if all_sensed:
        return 10.0
    if newly_sensed > 0:
        count = newly_sensed if total_sensed is None else total_sensed
        return 0.1 + 5.0 * count
    return 0.1


@dataclass
class Observation:
    common: np.ndarray
    privileged: Optional[np.ndarray] = None


@dataclass
class RewardBreakdown:
    """One step's rewards, one entry per EnvBatch row."""

    imitation: List[float]
    goal: List[float]
    total: List[float]
    r: List[float]              # distance to the expert polyline, nan without one
    newly_sensed: List[int]


PROGRESS_WINDOW = 8
PRIV_DIM = 12               # four waypoints of (dx, dy, dtheta)


def common_width(n_tasks: int) -> int:
    return 3 + 4 * n_tasks    # pose, per task (dx, dy, bearing), flags


ALL = slice(None)


class EnvBatch:
    """E envs of one config, mode and task count, stepped in lockstep.

    Row i holds an env's instance and expert path (load) and rolls episodes
    through reset(rows) and step(actions).  State is lists with one entry
    per row: pose tuples, sensed flag lists (which _pass marks in place),
    all_sensed, done, t and progress.  A step advances each pose by the
    whole dt; _pass builds the earlier substep points only for a task
    within r_sense + step_dist of the step's end, which drops no hit: a
    chord is no longer than its arc.  Expert polylines share one
    padded width of segments: each row repeats its last segment, which
    leaves every nearest-point minimum unchanged.  common and privileged
    are arrays of each row's latest observation, for the networks; they
    are replaced, never written in place, so rows handed out earlier keep
    their values.
    """

    def __init__(self, envs):
        envs = list(envs)
        if not envs:
            raise ValueError("a batch needs at least one env")
        first = envs[0]
        self.config, self.mode = first.config, first.mode
        self.n_tasks = first.n_tasks
        self.has_path = first.expert_path is not None
        e, n = len(envs), self.n_tasks
        # per row: task (x, y) pairs, frame (hw, hh, max(hw, hh)),
        # r_sense^2, filter radius^2, expert waypoints (x, y, theta) or None
        self._consts = [None] * e
        self._start = [None] * e
        # segment j of a row: start (x, y), vector (dx, dy), squared length;
        # _set_path widens them to the most segments loaded
        self._seg_start = np.zeros((e, 2, 1))
        self._seg_vec = np.zeros((e, 2, 1))
        self._seg_len2 = np.ones((e, 1))
        self.pose = [(0.0, 0.0, 0.0)] * e
        self.sensed = [[False] * n for _ in range(e)]
        self.all_sensed, self.done = [False] * e, [True] * e
        self.t, self.progress = [0] * e, [0] * e
        self.common = np.zeros((e, common_width(n)))
        self.privileged = np.zeros((e, PRIV_DIM)) if self.has_path else None
        for i, env in enumerate(envs):
            self.load(i, env)

    def load(self, i: int, env: "DtspnEnv") -> None:
        """Put env's instance and expert path in row i, which stays done
        until reset."""
        if (env.config, env.mode, env.n_tasks, env.expert_path is not None) \
                != (self.config, self.mode, self.n_tasks, self.has_path):
            raise ValueError("a batch holds envs of one config, mode, task "
                             "count and expert-path presence")
        x = env.instance
        hw, hh = 0.5 * x.map_width, 0.5 * x.map_height
        # products overflow to inf where ** 2 raises OverflowError
        near = x.r_sense + self.config.step_dist
        heading, waypoints = float(x.start.theta), None
        if self.has_path:
            wp = env.expert_path.waypoint_array()
            heading, waypoints = float(wp[0, 2]), wp.tolist()
            self._set_path(i, wp)
        self._consts[i] = (x.task_array().tolist(), (hw, hh, max(hw, hh)),
                           x.r_sense * x.r_sense, near * near, waypoints)
        self._start[i] = (float(x.start.x), float(x.start.y),
                          normalize_angle(heading))
        self.done[i] = True

    def _set_path(self, i: int, wp: np.ndarray) -> None:
        # segment j runs from waypoint j to j + 1; one waypoint makes one
        # zero-length segment, whose distance is to the waypoint
        n_w = len(wp)
        m = max(n_w - 1, 1)
        grow = m - self._seg_len2.shape[1]
        if grow > 0:
            for name in ("_seg_start", "_seg_vec", "_seg_len2"):
                a = getattr(self, name)
                setattr(self, name, np.concatenate(
                    [a, np.repeat(a[..., -1:], grow, -1)], axis=-1))
        start, vec, len2 = (self._seg_start[i], self._seg_vec[i],
                            self._seg_len2[i])
        start[:, :m] = wp[:m, 0:2].T
        vec[:, :m] = (wp[n_w - m:, 0:2] - wp[:m, 0:2]).T
        len2[:m] = np.maximum(vec[0, :m] ** 2 + vec[1, :m] ** 2, 1e-30)
        start[:, m:], vec[:, m:], len2[m:] = (start[:, m - 1:m],
                                              vec[:, m - 1:m], len2[m - 1])

    def expert_distance(self, xy) -> np.ndarray:
        """Distance from each row's point xy, (E, 2, 1), to the nearest
        point of that row's expert polyline (segments, not just vertices),
        for rows with expert paths.  A one-row batch takes T points as
        (T, 2, 1) and gives each the same bits as a call of its own."""
        # the two-term sums over axis 1 add x first, as (x...) + (y...)
        rel = xy - self._seg_start
        t = np.add.reduce(rel * self._seg_vec, axis=1) / self._seg_len2
        # minimum(maximum()) is np.clip without its wrapper's cost
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        gap = xy - (self._seg_start + t[:, None] * self._seg_vec)
        return np.sqrt(np.minimum.reduce(np.add.reduce(gap * gap, axis=1),
                                         axis=1))

    def _pass(self, i, flags, x, y, th, before=None, progress=0):
        """Row i's sensing and observations at pose (x, y, th), reached by a
        step from before, the pre-step pose and turn rate (x, y, theta,
        omega), or None at reset.  Marks the tasks within range of the pose
        or of the step's earlier substep points in flags, row i's sensed
        list; the substep points are built only for an unsensed task within
        r_sense + step_dist but beyond r_sense, the one test that reads
        them.  Returns
        the common row [pose, per-task (dx, dy, bearing) in the body frame,
        flags], positions normalized by the map half-extents and angles by
        pi; the count of newly sensed tasks; and the privileged row with
        the advanced progress (None and progress without an expert path).

        The privileged row is the four expert waypoints after progress,
        the last one standing in past the end, each as (dx, dy, dtheta) in
        the body frame.  progress first moves to the nearest waypoint (the
        first of equals) in a short window from it.  Monotone, and the
        window keeps a self-crossing tour from yanking progress across the
        crossing (waypoints are one env step apart, so the agent gains at
        most one index per step)."""
        tasks, (hw, hh, scale), r2, near2, waypoints = self._consts[i]
        pi = math.pi
        c, s = math.cos(th), math.sin(th)
        row = [(x - hw) / hw, (y - hh) / hh, th / pi]
        newly, path = 0, () if before is None else None
        for j, (tx, ty) in enumerate(tasks):
            dx, dy = tx - x, ty - y
            if not flags[j]:
                d2 = dx * dx + dy * dy
                if d2 <= near2:
                    if d2 > r2 and path is None:
                        cfg = self.config
                        path = [advance(*before, cfg.v, dt)
                                for dt in cfg.substeps[:-1]]
                    if d2 <= r2 or any(
                            (tx - px) * (tx - px) + (ty - py) * (ty - py)
                            <= r2 for px, py, _ in path):
                        flags[j] = True
                        newly += 1
            if dx or dy:    # the bearing, wrapped as normalize_angle does
                b = math.atan2(dy, dx) - th
                if not -pi <= b < pi:
                    b = (b + pi) % TWO_PI - pi
                b /= pi
            else:
                b = 0.0
            row += ((c * dx + s * dy) / scale, (-s * dx + c * dy) / scale, b)
        row += flags
        if waypoints is None:
            return row, newly, None, progress
        nearest, gain = math.inf, 0
        for j, (wx, wy, _) in enumerate(
                waypoints[progress:progress + PROGRESS_WINDOW + 1]):
            d = math.hypot(wx - x, wy - y)
            if d < nearest:
                nearest, gain = d, j
        progress += gain
        slots = waypoints[progress + 1:progress + 5]
        priv = []
        for wx, wy, wth in slots + waypoints[-1:] * (4 - len(slots)):
            dx, dy = wx - x, wy - y
            priv += ((c * dx + s * dy) / scale, (-s * dx + c * dy) / scale,
                     normalize_angle(wth - th) / math.pi)
        return row, newly, priv, progress

    def _observe(self, rows, commons, privs) -> None:
        # fromiter over the chained rows skips np.array's nested-list scan
        n, m = len(commons), self.common.shape[1]
        common = np.fromiter(chain.from_iterable(commons), float,
                             n * m).reshape(n, m)
        priv = None
        if self.has_path:
            priv = np.fromiter(chain.from_iterable(privs), float,
                               n * PRIV_DIM).reshape(n, PRIV_DIM)
        if rows is not ALL:
            common, c = self.common.copy(), common
            common[rows] = c
            if priv is not None:
                priv, p = self.privileged.copy(), priv
                priv[rows] = p
        self.common, self.privileged = common, priv

    def reset(self, rows=ALL) -> None:
        """Start a fresh episode in each of rows (ALL or an index array).
        A row whose start pose already senses every task is done at once;
        an empty index array changes nothing."""
        index = np.arange(len(self.done))[rows].tolist()
        commons, privs = [], []
        for i in index:
            self.pose[i] = pose = self._start[i]
            self.sensed[i] = flags = [False] * self.n_tasks
            row, _, priv, self.progress[i] = self._pass(i, flags, *pose)
            self.t[i] = 0
            self.all_sensed[i] = self.done[i] = False not in flags
            commons.append(row)
            privs.append(priv)
        self._observe(rows if rows is ALL else index, commons, privs)

    def step(self, actions) -> RewardBreakdown:
        """Advance every row by its action (an (E,) int array of indices
        into config.omegas).  Returns the rows' rewards; done and
        all_sensed hold the new flags.  Raises RuntimeError if any row is
        done (as every row is until its first reset) and ValueError unless
        actions holds E integers in [0, n_actions), before changing any
        state."""
        if True in self.done:
            raise RuntimeError("a row is done or was never reset; reset it "
                               "before stepping")
        cfg = self.config
        v, dt, omegas = cfg.v, cfg.dt, cfg.omegas
        if actions.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, got {actions.dtype}")
        if actions.shape != (len(self.t),):
            raise ValueError(f"actions for {len(self.t)} rows must have shape "
                             f"({len(self.t)},), got {actions.shape}")
        actions = actions.tolist()
        for a in actions:
            if not 0 <= a < cfg.n_actions:
                raise ValueError(f"action {a} out of range "
                                 f"[0, {cfg.n_actions})")
        poses, commons, newly, privs, progress, all_sensed = \
            [], [], [], [], [], []
        for i, ((x0, y0, th0), a, flags, k) in enumerate(zip(
                self.pose, actions, self.sensed, self.progress)):
            w = omegas[a]
            x, y, theta = advance(x0, y0, th0, w, v, dt)
            theta = normalize_angle(theta)
            row, n, priv, k = self._pass(i, flags, x, y, theta,
                                         (x0, y0, th0, w), k)
            poses.append((x, y, theta))
            commons.append(row)
            newly.append(n)
            privs.append(priv)
            progress.append(k)
            all_sensed.append(False not in flags)
        self.pose, self.progress, self.all_sensed = poses, progress, all_sensed
        self.t = t = [k + 1 for k in self.t]
        if self.has_path:
            dist = self.expert_distance(np.array(poses)[:, 0:2, None]).tolist()
            r_im = list(map(imitation_reward, dist))
        else:       # imitation_reward(nan) is 0.0
            dist, r_im = [math.nan] * len(t), [0.0] * len(t)
        ends = ([d > cfg.train_cutoff_dist for d in dist]
                if self.mode == "train" else
                [k >= cfg.max_steps_eval for k in t])
        self.done = [a or e for a, e in zip(all_sensed, ends)]
        if cfg.literal_goal_sum:
            r_goal = list(map(goal_reward, newly, all_sensed,
                              map(sum, self.sensed)))
        else:
            r_goal = list(map(goal_reward, newly, all_sensed))
        self._observe(ALL, commons, privs)
        total = [a + b for a, b in zip(r_im, r_goal)]
        return RewardBreakdown(r_im, r_goal, total, dist, newly)


class DtspnEnv:
    """One env: an instance, its expert path (if any), a mode and a config.
    mode 'train' terminates on the expert-path cutoff and requires an expert
    path; mode 'eval' caps the step count.  batch is the env's own one-row
    EnvBatch, which run_episode resets and steps."""

    def __init__(self, instance: Instance,
                 expert_path: Optional["ExpertPath"] = None,
                 mode: str = "eval", config: Optional[EnvConfig] = None):
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if mode == "train" and expert_path is None:
            raise ValueError("train mode requires an expert path")
        self.instance = instance
        self.expert_path = expert_path
        self.mode = mode
        self.config = config_for(instance, config)

    @cached_property
    def batch(self) -> EnvBatch:
        # built on first use: envs handed to a batch of their own never
        # pay for one
        return EnvBatch([self])

    @property
    def n_tasks(self) -> int:
        return self.instance.n_tasks


@dataclass
class EpisodeRecord:
    """One rolled-out episode.  Arrays are row-per-step: the observation each
    action saw, the action, then the pose and rewards after it.
    sensed_events lists (step index, task index) pairs in sensing order."""

    start_pose: Tuple[float, float, float]
    commons: np.ndarray        # (T, common_width(n_tasks))
    privileged: Optional[np.ndarray]  # (T, PRIV_DIM), None without expert path
    poses: np.ndarray          # (T, 3) pose after each action
    actions: np.ndarray        # (T,)
    r_imitation: np.ndarray    # (T,)
    r_goal: np.ndarray         # (T,)
    newly_sensed: np.ndarray   # (T,)
    dones: np.ndarray          # (T,)
    # step index -1 marks tasks already in range at reset
    sensed_events: List[Tuple[int, int]] = field(default_factory=list)
    sensed_all: bool = False
    n_sensed: int = 0
    wall_time: float = 0.0
    expert_path: Optional["ExpertPath"] = None   # the env's, if it had one

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def rewards(self) -> np.ndarray:
        return self.r_imitation + self.r_goal

    def total_reward(self) -> float:
        return float(self.rewards.sum())


def run_episode(env: DtspnEnv, act_fn: Callable[[Observation], int],
                max_steps: Optional[int] = None) -> EpisodeRecord:
    """Reset env's batch and step it with act_fn until done or max_steps
    actions, and record the episode with env's expert path.  wall_time
    covers reset, stepping and act_fn calls, nothing else.  max_steps
    bounds train-mode envs, which otherwise stop only on the cutoff or once
    every task is sensed."""
    t0 = time.perf_counter()
    b = env.batch
    b.reset()
    start, flags = b.pose[0], b.sensed[0]    # step marks flags in place
    events = [(-1, j) for j, f in enumerate(flags) if f]
    commons, privs, poses, actions, r_im, r_go, newly, dones = \
        [], [], [], [], [], [], [], []
    done = b.done[0]
    while not done and (max_steps is None or len(actions) < max_steps):
        obs = Observation(b.common[0], None if b.privileged is None
                          else b.privileged[0])
        a = act_fn(obs)
        commons.append(obs.common)
        privs.append(obs.privileged)
        rew = b.step(np.array([a]))
        poses.append(b.pose[0])
        actions.append(a)
        r_im += rew.imitation
        r_go += rew.goal
        (k,), done = rew.newly_sensed, b.done[0]
        newly.append(k)
        dones.append(done)
        if k:
            seen = {j for _, j in events}
            events += [(len(actions) - 1, j) for j, f in enumerate(flags)
                       if f and j not in seen]
    wall = time.perf_counter() - t0
    n = len(actions)
    return EpisodeRecord(
        start_pose=start,
        commons=np.array(commons, dtype=float).reshape(n, b.common.shape[1]),
        privileged=(None if env.expert_path is None else
                    np.array(privs, dtype=float).reshape(n, PRIV_DIM)),
        poses=np.array(poses, dtype=float).reshape(n, 3),
        actions=np.array(actions, dtype=np.int64),
        r_imitation=np.array(r_im, dtype=float),
        r_goal=np.array(r_go, dtype=float),
        newly_sensed=np.array(newly, dtype=np.int64),
        dones=np.array(dones, dtype=np.uint8),
        sensed_events=events,
        sensed_all=b.all_sensed[0],
        n_sensed=sum(flags),
        wall_time=wall,
        expert_path=env.expert_path)
