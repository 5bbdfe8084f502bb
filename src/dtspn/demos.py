"""Demonstration collection.

A greedy inverse controller tracks the expert waypoint polyline through the
simulator, recording common and privileged observations, the chosen action,
and the full reward at each step.  Accepted episodes sense every task without
ever hitting the train-mode cutoff; everything else raises TrackingFailure so
batch collection can report rejected seeds instead of silently dropping them.
"""

import contextlib
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dubins import Pose, advance
from .env import (PRIV_DIM, DtspnEnv, EnvConfig, EpisodeRecord, Observation,
                  common_width, config_for, run_episode)
from .expert import (DEFAULT_HEADS, DEFAULT_POS, ExpertPath, SensingGap,
                     check_sampling, plan)
from .instance import (DEFAULT_MAP, DEFAULT_SENSE, Instance, generate,
                       positive_finite)
from .learn import discounted_return

MAGIC = b"DTSPDEMO"
# 2: plan() optimizes an open path, so replaying a version-1 file from its
# header would track different expert paths.
# 3: the header drops the byte of the removed cumulative goal-reward flag.
VERSION = 3
GAMMA = 0.95

_HEADER = struct.Struct("<8sII4d3dIIddIIIII")


class TrackingFailure(RuntimeError):
    """The greedy controller lost the expert path."""

    def __init__(self, msg: str, max_deviation: float, step_index: int):
        super().__init__(msg)
        self.max_deviation = max_deviation
        self.step_index = step_index


class DemoFormatError(ValueError):
    pass


@dataclass
class Demonstration:
    """One accepted episode, one row per step.  It senses every task and its
    returns follow from its rewards, so none of the three is stored."""

    seed: int
    commons: np.ndarray        # (T, common_dim) float64
    privileged: np.ndarray     # (T, priv_dim) float64
    actions: np.ndarray        # (T,) uint8
    rewards: np.ndarray        # (T,) float64
    dones: np.ndarray          # (T,) uint8
    sensed_all = True          # a class constant, not a field

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def return_undiscounted(self) -> float:
        # contiguous, as when collected: numpy sums strided views in blocks
        return float(np.ascontiguousarray(self.rewards).sum())

    @property
    def return_discounted(self) -> float:
        return discounted_return(self.rewards, GAMMA)


@dataclass(frozen=True)
class DemoMeta:
    """An instance family and how its demonstrations are made: the
    generator's task count, map and sensing radius, the env config (whose
    turning radius the instances take) and the planner's pose sampling.
    A dataset's header records it, so every episode can be rebuilt.  It
    defaults to generate's and plan's defaults, and raises ValueError on
    values they refuse (or over 255 actions) before any planning."""

    n_tasks: int
    map_width: float = DEFAULT_MAP[0]
    map_height: float = DEFAULT_MAP[1]
    r_sense: float = DEFAULT_SENSE
    config: EnvConfig = EnvConfig()
    n_pos: int = DEFAULT_POS
    n_head: int = DEFAULT_HEADS
    priv_dim = PRIV_DIM     # a class constant, not a field

    def __post_init__(self):
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {self.n_tasks}")
        check_sampling(self.n_pos, self.n_head)
        if self.config.n_actions > 255:
            raise ValueError(f"n_actions must fit a u1, got "
                             f"{self.config.n_actions}")
        for name in ("map_width", "map_height", "r_sense"):
            positive_finite(name, getattr(self, name))

    @property
    def common_dim(self) -> int:
        return common_width(self.n_tasks)

    def instance_for(self, seed: int) -> Instance:
        return generate(n_tasks=self.n_tasks, seed=seed,
                        map_size=(self.map_width, self.map_height),
                        r_sense=self.r_sense,
                        turn_radius=self.config.turn_radius)

    def expert_path(self, instance: Instance) -> ExpertPath:
        """The family's expert path through one of its instances."""
        return plan(instance, n_pos=self.n_pos, n_head=self.n_head,
                    config=self.config)

    def train_envs(self, base_seed: int, size: int
                   ) -> Callable[[], DtspnEnv]:
        """A zero-argument factory of train-mode envs over a pool of size
        instances with their expert paths, the first that plan of the
        4 * size + 41 seeds from base_seed on, handed out in seed order and
        then around again.  Expert paths shape the train-mode reward and
        cut episodes off even when the encoder never sees them.  Raises
        RuntimeError if too few seeds plan."""
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        pool = []
        for seed in range(base_seed, base_seed + 4 * size + 41):
            if len(pool) == size:
                break
            x = self.instance_for(seed)
            with contextlib.suppress(SensingGap):
                pool.append((x, self.expert_path(x)))
        if len(pool) < size:
            raise RuntimeError("could not assemble a training pool: too many "
                               "instances failed expert planning")
        turn = itertools.count()
        return lambda: DtspnEnv(*pool[next(turn) % size], mode="train",
                                config=self.config)


def _transition_dtype(common_dim: int, priv_dim: int) -> np.dtype:
    return np.dtype([("common", "<f8", (common_dim,)),
                     ("priv", "<f8", (priv_dim,)),
                     ("reward", "<f8"), ("action", "u1"), ("done", "u1")])


class DemoDataset:
    """Demonstrations copied into one array of the file's transition rows,
    episode i at rows[offsets[i]:offsets[i+1]] and collected on seeds[i].
    Items are Demonstrations whose arrays are views of those rows."""

    def __init__(self, demos=(), meta: Optional[DemoMeta] = None):
        demos = list(demos)
        first = demos[0].commons.shape[1] if demos else 0
        self.meta = meta
        self.seeds = tuple(d.seed for d in demos)
        self.offsets = np.cumsum([0] + [len(d) for d in demos])
        self.rows = np.empty(self.offsets[-1], _transition_dtype(
            meta.common_dim if meta else first, PRIV_DIM))
        for d, start, stop in zip(demos, self.offsets, self.offsets[1:]):
            r = self.rows[start:stop]
            r["common"], r["priv"], r["reward"], r["action"], r["done"] = (
                d.commons, d.privileged, d.rewards, d.actions, d.dones)

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DemoDataset(map(self.__getitem__, range(len(self))[i]),
                               meta=self.meta)
        i = range(len(self))[i]
        r = self.rows[self.offsets[i]:self.offsets[i + 1]]
        return Demonstration(self.seeds[i], r["common"], r["priv"],
                             r["action"], r["reward"], r["done"])

    def rows_of(self, episodes):
        """The given episodes' rows in order: contiguous commons, privileged
        and int64 actions, each an array of its own."""
        idx = np.concatenate([np.arange(0)] + [
            np.arange(self.offsets[i], self.offsets[i + 1]) for i in episodes])
        return (self.rows["common"][idx], self.rows["priv"][idx],
                self.rows["action"][idx].astype(np.int64))


def make_meta(instance: Instance) -> DemoMeta:
    """instance's family, under its default config and sampling."""
    return DemoMeta(instance.n_tasks, instance.map_width, instance.map_height,
                    instance.r_sense, config_for(instance, None))


def greedy_action(x: float, y: float, theta: float, target: Pose,
                  config: EnvConfig) -> int:
    """Action whose exact one-step successor from pose (x, y, theta) lands
    closest to the target position; ties go to the smaller turn-rate
    magnitude."""
    best = None
    for k, omega in enumerate(config.omegas):
        nx, ny, _ = advance(x, y, theta, omega, config.v, config.dt)
        key = (math.hypot(nx - target.x, ny - target.y), abs(omega), k)
        if best is None or key < best[0]:
            best = (key, k)
    return best[1]


def tracker(env: DtspnEnv) -> Callable[[Observation], int]:
    """act_fn for run_episode: the greedy controller chasing the waypoint
    two past the progress index of env's batch, clamped to the end of the
    expert path.  The pose goes in as its stored floats: a Pose would wrap
    a heading of pi to -pi."""
    b, waypoints, config = env.batch, env.expert_path.waypoints, env.config
    last = len(waypoints) - 1

    def act_fn(obs: Observation) -> int:
        target = waypoints[min(b.progress[0] + 2, last)]
        return greedy_action(*b.pose[0], target, config)

    return act_fn


def track(instance: Instance, expert_path: ExpertPath,
          config: Optional[EnvConfig] = None
          ) -> Tuple[DtspnEnv, EpisodeRecord]:
    """Roll the greedy controller along expert_path through a train-mode
    env, which stops on the cutoff or once every task is sensed, for at most
    max(4 * waypoints, 400) steps.  Returns the env and its record."""
    env = DtspnEnv(instance, expert_path, mode="train", config=config)
    cap = max(4 * len(expert_path.waypoints), 400)
    return env, run_episode(env, tracker(env), max_steps=cap)


def collect(instance: Instance, expert_path: ExpertPath,
            config: Optional[EnvConfig] = None) -> Demonstration:
    """Track the expert path (see track) and record the episode.  Raises
    TrackingFailure if the episode hits the cutoff, stalls past the step
    cap, or ends without sensing every task."""
    env, rec = track(instance, expert_path, config)
    if not rec.sensed_all:
        max_dev = float(env.batch.expert_distance(rec.poses[:, 0:2, None])
                        .max())
        what = (f"controller left the expert corridor at step {len(rec)}"
                if env.batch.done[0]
                else f"episode did not finish within {len(rec)} steps")
        raise TrackingFailure(f"{what} (max deviation {max_dev:.2f} m)",
                              max_dev, len(rec))
    return Demonstration(instance.seed, rec.commons, rec.privileged,
                         rec.actions.astype(np.uint8), rec.rewards, rec.dones)


def collect_batch(meta: DemoMeta, n_demos: int, base_seed: int = 0):
    """Collect demonstrations of meta's family over consecutive instance
    seeds from base_seed until n_demos are accepted or 2 * n_demos + 20
    seeds are tried.  Returns (dataset, report) where report lists every
    rejected seed with its reason.  An episode whose start already senses
    every task has no transitions and is rejected too."""
    if min(n_demos, base_seed) < 0:
        raise ValueError(f"n_demos and base_seed must be >= 0, got "
                         f"{n_demos} and {base_seed}")
    demos = []
    rejected = []
    for seed in range(base_seed, base_seed + 2 * n_demos + 20):
        if len(demos) == n_demos:
            break
        x = meta.instance_for(seed)
        try:
            demo = collect(x, meta.expert_path(x), meta.config)
        except RuntimeError as e:
            # TrackingFailure from collect or SensingGap from plan
            rejected.append((seed, str(e)))
        else:
            if len(demo):
                demos.append(demo)
            else:
                rejected.append((seed, "start senses every task"))
    attempts = len(demos) + len(rejected)
    report = {
        "attempted": attempts,
        "accepted": len(demos),
        "rejected": rejected,
        "accept_rate": len(demos) / attempts if attempts else 0.0,
    }
    return DemoDataset(demos, meta=meta), report


# seed, row count, sensed_all (always 1), undiscounted and discounted return
_RECORD = struct.Struct("<QIBdd")


def save_dataset(demos: DemoDataset, path: str) -> None:
    meta = demos.meta
    if meta is None:
        raise ValueError("save_dataset needs a DemoDataset with meta attached")
    cfg = meta.config
    header = _HEADER.pack(
        MAGIC, VERSION, meta.n_tasks,
        meta.map_width, meta.map_height, meta.r_sense, cfg.turn_radius,
        cfg.v, cfg.dt, cfg.omega_max, cfg.n_actions, cfg.max_steps_eval,
        cfg.train_cutoff_dist, cfg.sense_substep, meta.n_pos, meta.n_head,
        meta.common_dim, meta.priv_dim, len(demos))
    with open(path, "wb") as f:
        f.write(header)
        for d, start, stop in zip(demos, demos.offsets, demos.offsets[1:]):
            f.write(_RECORD.pack(d.seed, len(d), 1, d.return_undiscounted,
                                 d.return_discounted))
            f.write(demos.rows[start:stop].tobytes())


def load_dataset(path: str) -> DemoDataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise DemoFormatError(f"truncated header: {len(raw)} bytes")
    (magic, version, n_tasks, map_w, map_h, r_sense, turn_radius, v, dt_,
     omega_max, n_actions, max_steps, cutoff, substep, n_pos, n_head,
     common_dim, priv_dim, count) = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise DemoFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise DemoFormatError(f"unsupported version {version}, expected {VERSION}")
    if common_dim != common_width(n_tasks):
        raise DemoFormatError(
            f"common dim mismatch: expected {common_width(n_tasks)} for "
            f"{n_tasks} tasks, found {common_dim}")
    if priv_dim != PRIV_DIM:
        raise DemoFormatError(f"privileged dim mismatch: expected "
                              f"{PRIV_DIM}, found {priv_dim}")
    try:
        config = EnvConfig(
            turn_radius=turn_radius, omega_max=omega_max, dt=dt_,
            n_actions=n_actions, max_steps_eval=max_steps,
            train_cutoff_dist=cutoff, sense_substep=substep)
        meta = DemoMeta(n_tasks=n_tasks, map_width=map_w, map_height=map_h,
                        r_sense=r_sense, config=config, n_pos=n_pos,
                        n_head=n_head)
    except ValueError as e:
        raise DemoFormatError(f"invalid header: {e}") from None
    if not abs(v - config.v) <= 1e-9:     # so that NaN fails too
        raise DemoFormatError(
            f"inconsistent kinematics: v {v} != omega_max * turn_radius "
            f"{config.v}")
    tdt = _transition_dtype(common_dim, priv_dim)
    off = _HEADER.size
    demos = []
    for i in range(count):
        if off + _RECORD.size > len(raw):
            raise DemoFormatError(f"truncated record {i} at byte {off}")
        seed, n_tr, sensed_all, *returns = _RECORD.unpack_from(raw, off)
        off += _RECORD.size
        nbytes = n_tr * tdt.itemsize
        if off + nbytes > len(raw):
            raise DemoFormatError(
                f"truncated transitions for record {i}: expected {nbytes} "
                f"bytes, found {len(raw) - off}")
        block = np.frombuffer(raw, dtype=tdt, count=n_tr, offset=off)
        off += nbytes
        d = Demonstration(seed, block["common"], block["priv"],
                          block["action"], block["reward"], block["done"])
        if sensed_all != 1:
            raise DemoFormatError(f"record {i}: sensed_all {sensed_all} != 1")
        with np.errstate(over="ignore", invalid="ignore"):
            recomputed = (d.return_undiscounted, d.return_discounted)
        for kind, stored, r in zip(("undiscounted", "discounted"), returns,
                                   recomputed):
            if not abs(r - stored) <= 1e-9:     # so that NaN fails too
                raise DemoFormatError(
                    f"record {i}: stored {kind} return {stored!r} differs "
                    f"from {r!r} recomputed from its rewards")
        if n_tr and d.actions.max() >= n_actions:
            raise DemoFormatError(f"record {i}: action out of range "
                                  f"[0, {n_actions})")
        if n_tr and (d.dones[-1] != 1 or d.dones[:-1].any()):
            raise DemoFormatError(f"record {i}: done must be 0 before the "
                                  f"last row and 1 on it")
        demos.append(d)
    if off != len(raw):
        raise DemoFormatError(f"{len(raw) - off} trailing bytes after "
                              f"{count} records")
    return DemoDataset(demos, meta=meta)


def replay_rewards(demo: Demonstration, meta: DemoMeta) -> np.ndarray:
    """Recompute the reward sequence by regenerating the instance and expert
    path from the metadata and feeding the recorded actions back through a
    fresh env.  Byte-identical output is the replay determinism check."""
    x = meta.instance_for(demo.seed)
    env = DtspnEnv(x, meta.expert_path(x), mode="train", config=meta.config)
    actions = iter(demo.actions)
    return run_episode(env, lambda obs: int(next(actions)),
                       max_steps=len(demo)).rewards
