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
from typing import List, Optional, Tuple

import numpy as np

from .dubins import Pose
from .env import DtspnEnv, EnvConfig, SimState, advance, config_for
from .expert import ExpertPath, plan
from .instance import Instance, generate
from .learn import discounted_return

MAGIC = b"DTSPDEMO"
# 2: plan() optimizes an open path, so replaying a version-1 file from its
# header would track different expert paths.
VERSION = 2
GAMMA = 0.95

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
    """Everything needed to rebuild the envs that produced a dataset."""

    n_tasks: int
    map_width: float
    map_height: float
    r_sense: float
    turn_radius: float
    v: float
    dt: float
    omega_max: float
    n_actions: int
    max_steps_eval: int
    train_cutoff_dist: float
    sense_substep: float
    literal_goal_sum: bool
    n_pos: int
    n_head: int
    common_dim: int
    priv_dim: int

    def env_config(self) -> EnvConfig:
        return EnvConfig(turn_radius=self.turn_radius, omega_max=self.omega_max,
                         dt=self.dt, n_actions=self.n_actions,
                         max_steps_eval=self.max_steps_eval,
                         train_cutoff_dist=self.train_cutoff_dist,
                         sense_substep=self.sense_substep,
                         literal_goal_sum=self.literal_goal_sum)

    def instance_for(self, seed: int) -> Instance:
        return generate(n_tasks=self.n_tasks, seed=seed,
                        map_size=(self.map_width, self.map_height),
                        r_sense=self.r_sense, turn_radius=self.turn_radius)


class DemoDataset(List[Demonstration]):
    """A list of demonstrations plus the metadata block they share."""

    def __init__(self, demos=(), meta: Optional[DemoMeta] = None):
        super().__init__(demos)
        self.meta = meta


def make_meta(instance: Instance, config: Optional[EnvConfig] = None,
              n_pos: int = 8, n_head: int = 4) -> DemoMeta:
    config = config_for(instance, config)
    return DemoMeta(
        n_tasks=instance.n_tasks, map_width=instance.map_width,
        map_height=instance.map_height, r_sense=instance.r_sense,
        turn_radius=instance.turn_radius, v=config.v, dt=config.dt,
        omega_max=config.omega_max, n_actions=config.n_actions,
        max_steps_eval=config.max_steps_eval,
        train_cutoff_dist=config.train_cutoff_dist,
        sense_substep=config.sense_substep,
        literal_goal_sum=config.literal_goal_sum,
        n_pos=n_pos, n_head=n_head,
        common_dim=3 + 4 * instance.n_tasks, priv_dim=12)


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


def collect(instance: Instance, expert_path: ExpertPath,
            config: Optional[EnvConfig] = None, lookahead: int = 2) -> Demonstration:
    """Roll the greedy controller through a train-mode env and record the
    episode.  Raises TrackingFailure if the episode hits the cutoff, stalls
    past the step cap, or ends without sensing every task."""
    env = DtspnEnv(instance, expert_path, mode="train", config=config)
    obs = env.reset()
    cap = max(4 * len(expert_path.waypoints), 400)
    common_dim = 3 + 4 * instance.n_tasks

    commons, privs, actions, rewards, dones = [], [], [], [], []
    max_dev, t = 0.0, 0
    done = env._finished
    all_sensed = done
    while not done:
        target = track_target(env.state, expert_path, lookahead)
        a = greedy_action(env.state.pose, target, env.config)
        next_obs, rew, done, info = env.step(a)
        commons.append(obs.common)
        privs.append(obs.privileged)
        actions.append(a)
        rewards.append(rew.total)
        dones.append(done)
        obs = next_obs
        t += 1
        if not math.isnan(rew.r):
            max_dev = max(max_dev, rew.r)
        all_sensed = info["all_sensed"]
        if done and not all_sensed:
            raise TrackingFailure(
                f"controller left the expert corridor at step {t} "
                f"(max deviation {max_dev:.2f} m)", max_dev, t)
        if not done and t >= cap:
            raise TrackingFailure(
                f"episode did not finish within {cap} steps "
                f"(max deviation {max_dev:.2f} m)", max_dev, t)

    rew_arr = np.asarray(rewards, dtype=float)
    return Demonstration(
        seed=instance.seed,
        commons=(np.vstack(commons) if commons
                 else np.zeros((0, common_dim))),
        privileged=(np.vstack(privs) if privs else np.zeros((0, 12))),
        actions=np.asarray(actions, dtype=np.uint8),
        rewards=rew_arr,
        dones=np.asarray(dones, dtype=np.uint8),
        sensed_all=True,
        return_undiscounted=float(rew_arr.sum()),
        return_discounted=discounted_return(rew_arr, GAMMA))


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
    header = _HEADER.pack(
        MAGIC, VERSION, meta.n_tasks,
        meta.map_width, meta.map_height, meta.r_sense, meta.turn_radius,
        meta.v, meta.dt, meta.omega_max,
        meta.n_actions, meta.max_steps_eval,
        meta.train_cutoff_dist, meta.sense_substep,
        int(meta.literal_goal_sum), meta.n_pos, meta.n_head,
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
    if priv_dim != 12:
        raise DemoFormatError(f"privileged dim mismatch: expected 12, "
                              f"found {priv_dim}")
    if abs(v - omega_max * turn_radius) > 1e-9:
        raise DemoFormatError(
            f"inconsistent kinematics: v {v} != omega_max * turn_radius "
            f"{omega_max * turn_radius}")
    meta = DemoMeta(n_tasks=n_tasks, map_width=map_w, map_height=map_h,
                    r_sense=r_sense, turn_radius=turn_radius, v=v, dt=dt_,
                    omega_max=omega_max, n_actions=n_actions,
                    max_steps_eval=max_steps, train_cutoff_dist=cutoff,
                    sense_substep=substep, literal_goal_sum=bool(literal),
                    n_pos=n_pos, n_head=n_head,
                    common_dim=common_dim, priv_dim=priv_dim)
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
    config = meta.env_config()
    path = plan(x, n_pos=meta.n_pos, n_head=meta.n_head,
                step_dist=config.step_dist)
    env = DtspnEnv(x, path, mode="train", config=config)
    env.reset()
    out = np.empty(len(demo))
    for i, a in enumerate(demo.actions):
        _, rew, done, _ = env.step(int(a))
        out[i] = rew.total
        if done:
            return out[:i + 1]
    return out
