"""Demonstration collection.

A greedy inverse controller tracks the expert waypoint polyline through the
simulator, recording common and privileged observations, the chosen action,
and the full reward at each step.  Accepted episodes sense every task without
ever hitting the train-mode cutoff; everything else raises TrackingFailure so
batch collection can report rejected seeds instead of silently dropping them.
"""

import math
import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .dubins import Pose
from .env import (PRIV_DIM, DtspnEnv, EnvConfig, Observation, SimState,
                  advance, config_for, run_episode)
from .expert import ExpertPath, plan
from .instance import Instance, generate
from .learn import discounted_return

MAGIC = b"DTSPDEMO"
# 2: plan() optimizes an open path, so replaying a version-1 file from its
# header would track different expert paths.
VERSION = 2
GAMMA = 0.95
# Most sampled poses per task; the planner's pose-pair costs grow as N^2.
MAX_POSES_PER_TASK = 256

_HEADER = struct.Struct("<8sII4d3dIIddBIIIII")


class TrackingFailure(RuntimeError):
    """The greedy controller lost the expert path."""

    def __init__(self, msg: str, max_deviation: float, step_index: int):
        super().__init__(msg)
        self.max_deviation = max_deviation
        self.step_index = step_index


class DemoFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Transition:
    common_obs: np.ndarray
    privileged_obs: np.ndarray
    action: int
    reward: float
    done: bool


@dataclass
class Demonstration:
    """One accepted episode.  Arrays are row-per-step; transitions is a
    convenience view for element-wise access."""

    seed: int
    commons: np.ndarray        # (T, common_dim)
    privileged: np.ndarray     # (T, priv_dim)
    actions: np.ndarray        # (T,) uint8
    rewards: np.ndarray        # (T,)
    dones: np.ndarray          # (T,) uint8
    sensed_all: bool
    return_undiscounted: float
    return_discounted: float

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(
            Transition(self.commons[i], self.privileged[i],
                       int(self.actions[i]), float(self.rewards[i]),
                       bool(self.dones[i]))
            for i in range(len(self.actions)))


@dataclass(frozen=True)
class DemoMeta:
    """Everything needed to rebuild the envs that produced a dataset: the
    instance family, the env config and the planner's pose sampling."""

    n_tasks: int
    map_width: float
    map_height: float
    r_sense: float
    config: EnvConfig
    n_pos: int
    n_head: int
    priv_dim = PRIV_DIM     # a class constant, not a field

    def __post_init__(self):
        if min(self.n_tasks, self.n_pos, self.n_head) < 1 or \
                self.n_pos * self.n_head > MAX_POSES_PER_TASK:
            raise ValueError(f"n_tasks, n_pos and n_head must be >= 1 and "
                             f"n_pos * n_head <= {MAX_POSES_PER_TASK}, got "
                             f"{(self.n_tasks, self.n_pos, self.n_head)}")
        if self.config.n_actions > 255:
            raise ValueError(f"n_actions must fit a u1, got "
                             f"{self.config.n_actions}")
        for name in ("map_width", "map_height", "r_sense"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")

    @property
    def common_dim(self) -> int:
        return 3 + 4 * self.n_tasks

    def instance_for(self, seed: int) -> Instance:
        return generate(n_tasks=self.n_tasks, seed=seed,
                        map_size=(self.map_width, self.map_height),
                        r_sense=self.r_sense,
                        turn_radius=self.config.turn_radius)


class DemoDataset(List[Demonstration]):
    """A list of demonstrations plus the metadata block they share."""

    def __init__(self, demos=(), meta: Optional[DemoMeta] = None):
        super().__init__(demos)
        self.meta = meta


def make_meta(instance: Instance, config: Optional[EnvConfig] = None,
              n_pos: int = 8, n_head: int = 4) -> DemoMeta:
    return DemoMeta(
        n_tasks=instance.n_tasks, map_width=instance.map_width,
        map_height=instance.map_height, r_sense=instance.r_sense,
        config=config_for(instance, config), n_pos=n_pos, n_head=n_head)


def greedy_action(pose: Pose, target: Pose, config: EnvConfig) -> int:
    """Action whose exact one-step successor lands closest to the target
    position; ties go to the smaller turn-rate magnitude."""
    best = None
    for k, omega in enumerate(config.omegas):
        x, y, _ = advance(pose.x, pose.y, pose.theta, omega, config.v, config.dt)
        key = (math.hypot(x - target.x, y - target.y), abs(omega), k)
        if best is None or key < best[0]:
            best = (key, k)
    return best[1]


def track_target(sim: SimState, expert_path: ExpertPath, lookahead: int = 2) -> Pose:
    """Waypoint the controller should chase: lookahead steps past the current
    progress index, clamped to the end of the path."""
    idx = min(sim.progress_idx + lookahead, len(expert_path.waypoints) - 1)
    return expert_path.waypoints[idx]


def tracker(env: DtspnEnv) -> Callable[[Observation], int]:
    """act_fn for run_episode: the greedy controller chasing env's expert
    path."""
    def act_fn(obs: Observation) -> int:
        sim = env.state
        return greedy_action(sim.pose, track_target(sim, env.expert_path),
                             env.config)

    return act_fn


def step_cap(expert_path: ExpertPath) -> int:
    """Step bound for tracking an expert path in a train-mode env, which
    otherwise stops only on the cutoff or once every task is sensed."""
    return max(4 * len(expert_path.waypoints), 400)


def collect(instance: Instance, expert_path: ExpertPath,
            config: Optional[EnvConfig] = None) -> Demonstration:
    """Roll the greedy controller through a train-mode env and record the
    episode.  Raises TrackingFailure if the episode hits the cutoff, stalls
    past the step cap, or ends without sensing every task."""
    env = DtspnEnv(instance, expert_path, mode="train", config=config)
    cap = step_cap(expert_path)
    rec = run_episode(env, tracker(env), max_steps=cap)
    if not rec.sensed_all:
        max_dev = max(env.expert_distance(x, y) for x, y, _ in rec.poses)
        what = (f"controller left the expert corridor at step {len(rec)}"
                if env.done else f"episode did not finish within {cap} steps")
        raise TrackingFailure(f"{what} (max deviation {max_dev:.2f} m)",
                              max_dev, len(rec))
    rewards = rec.rewards
    return Demonstration(
        seed=instance.seed, commons=rec.commons, privileged=rec.privileged,
        actions=rec.actions.astype(np.uint8), rewards=rewards,
        dones=rec.dones, sensed_all=True,
        return_undiscounted=float(rewards.sum()),
        return_discounted=discounted_return(rewards, GAMMA))


def collect_batch(n_demos: int, base_seed: int = 0, n_tasks: int = 20,
                  map_size: Tuple[float, float] = (800.0, 800.0),
                  r_sense: float = 58.0, turn_radius: float = 30.0,
                  n_pos: int = 8, n_head: int = 4,
                  config: Optional[EnvConfig] = None,
                  max_attempts: Optional[int] = None,
                  progress=None):
    """Collect demonstrations over consecutive instance seeds until n_demos
    are accepted (or max_attempts seeds tried).  Returns (dataset, report)
    where report lists every rejected seed with its reason."""
    if max_attempts is None:
        max_attempts = 2 * n_demos + 20
    meta = None
    demos = []
    rejected = []
    seed = base_seed
    attempts = 0
    while len(demos) < n_demos and attempts < max_attempts:
        x = generate(n_tasks=n_tasks, seed=seed, map_size=map_size,
                     r_sense=r_sense, turn_radius=turn_radius)
        if meta is None:
            meta = make_meta(x, config, n_pos=n_pos, n_head=n_head)
        try:
            path = plan(x, n_pos=n_pos, n_head=n_head,
                        step_dist=config_for(x, config).step_dist)
            demos.append(collect(x, path, config=config))
        except RuntimeError as e:
            # TrackingFailure from collect or SensingGap from plan
            rejected.append((seed, str(e)))
        seed += 1
        attempts += 1
        if progress is not None:
            progress(attempts, len(demos))
    report = {
        "attempted": attempts,
        "accepted": len(demos),
        "rejected": rejected,
        "accept_rate": len(demos) / attempts if attempts else 0.0,
    }
    return DemoDataset(demos, meta=meta), report


def _transition_dtype(common_dim: int, priv_dim: int) -> np.dtype:
    return np.dtype([("common", "<f8", (common_dim,)),
                     ("priv", "<f8", (priv_dim,)),
                     ("reward", "<f8"), ("action", "u1"), ("done", "u1")])


def save_dataset(demos, path: str) -> None:
    meta = getattr(demos, "meta", None)
    if meta is None:
        raise ValueError("save_dataset needs a DemoDataset with meta attached")
    cfg = meta.config
    header = _HEADER.pack(
        MAGIC, VERSION, meta.n_tasks,
        meta.map_width, meta.map_height, meta.r_sense, cfg.turn_radius,
        cfg.v, cfg.dt, cfg.omega_max, cfg.n_actions, cfg.max_steps_eval,
        cfg.train_cutoff_dist, cfg.sense_substep,
        int(cfg.literal_goal_sum), meta.n_pos, meta.n_head,
        meta.common_dim, meta.priv_dim, len(demos))
    rec = struct.Struct("<QIBdd")
    dt = _transition_dtype(meta.common_dim, meta.priv_dim)
    with open(path, "wb") as f:
        f.write(header)
        for d in demos:
            if d.commons.shape[1:] != (meta.common_dim,):
                raise ValueError(
                    f"demonstration shape mismatch: expected common dim "
                    f"{meta.common_dim}, found {d.commons.shape[1]}")
            f.write(rec.pack(d.seed, len(d), int(d.sensed_all),
                             d.return_undiscounted, d.return_discounted))
            block = np.empty(len(d), dtype=dt)
            block["common"] = d.commons
            block["priv"] = d.privileged
            block["reward"] = d.rewards
            block["action"] = d.actions
            block["done"] = d.dones
            f.write(block.tobytes())


def load_dataset(path: str) -> DemoDataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise DemoFormatError(f"truncated header: {len(raw)} bytes")
    (magic, version, n_tasks, map_w, map_h, r_sense, turn_radius, v, dt_,
     omega_max, n_actions, max_steps, cutoff, substep, literal, n_pos,
     n_head, common_dim, priv_dim, count) = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise DemoFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise DemoFormatError(f"unsupported version {version}, expected {VERSION}")
    if common_dim != 3 + 4 * n_tasks:
        raise DemoFormatError(
            f"common dim mismatch: expected {3 + 4 * n_tasks} for "
            f"{n_tasks} tasks, found {common_dim}")
    if priv_dim != PRIV_DIM:
        raise DemoFormatError(f"privileged dim mismatch: expected "
                              f"{PRIV_DIM}, found {priv_dim}")
    if literal > 1:
        raise DemoFormatError(f"literal_goal_sum flag {literal} is not 0 or 1")
    try:
        config = EnvConfig(
            turn_radius=turn_radius, omega_max=omega_max, dt=dt_,
            n_actions=n_actions, max_steps_eval=max_steps,
            train_cutoff_dist=cutoff, sense_substep=substep,
            literal_goal_sum=bool(literal))
        meta = DemoMeta(n_tasks=n_tasks, map_width=map_w, map_height=map_h,
                        r_sense=r_sense, config=config, n_pos=n_pos,
                        n_head=n_head)
    except ValueError as e:
        raise DemoFormatError(f"invalid header: {e}") from None
    if abs(v - config.v) > 1e-9:
        raise DemoFormatError(
            f"inconsistent kinematics: v {v} != omega_max * turn_radius "
            f"{config.v}")
    rec = struct.Struct("<QIBdd")
    tdt = _transition_dtype(common_dim, priv_dim)
    off = _HEADER.size
    demos = []
    for i in range(count):
        if off + rec.size > len(raw):
            raise DemoFormatError(f"truncated record {i} at byte {off}")
        seed, n_tr, sensed_all, r_u, r_d = rec.unpack_from(raw, off)
        off += rec.size
        nbytes = n_tr * tdt.itemsize
        if off + nbytes > len(raw):
            raise DemoFormatError(
                f"truncated transitions for record {i}: expected {nbytes} "
                f"bytes, found {len(raw) - off}")
        block = np.frombuffer(raw, dtype=tdt, count=n_tr, offset=off)
        off += nbytes
        if n_tr and block["action"].max() >= n_actions:
            raise DemoFormatError(f"record {i}: action out of range "
                                  f"[0, {n_actions})")
        demos.append(Demonstration(
            seed=seed,
            commons=block["common"].reshape(n_tr, common_dim).copy(),
            privileged=block["priv"].reshape(n_tr, priv_dim).copy(),
            actions=block["action"].copy(),
            rewards=block["reward"].copy(),
            dones=block["done"].copy(),
            sensed_all=bool(sensed_all),
            return_undiscounted=r_u,
            return_discounted=r_d))
    if off != len(raw):
        raise DemoFormatError(f"{len(raw) - off} trailing bytes after "
                              f"{count} records")
    return DemoDataset(demos, meta=meta)


def replay_rewards(demo: Demonstration, meta: DemoMeta) -> np.ndarray:
    """Recompute the reward sequence by regenerating the instance and expert
    path from the metadata and feeding the recorded actions back through a
    fresh env.  Byte-identical output is the replay determinism check."""
    x = meta.instance_for(demo.seed)
    path = plan(x, n_pos=meta.n_pos, n_head=meta.n_head,
                step_dist=meta.config.step_dist)
    env = DtspnEnv(x, path, mode="train", config=meta.config)
    actions = iter(demo.actions)
    return run_episode(env, lambda obs: int(next(actions)),
                       max_steps=len(demo)).rewards
