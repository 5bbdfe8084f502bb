"""Evaluation harness: per-episode records, aggregate metrics, the
expert-vs-policy speed benchmark, and CSV persistence."""

import csv
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .demos import greedy_action, track_target
from .env import DtspnEnv, EnvConfig, Observation, config_for
from .expert import ExpertPath, plan
from .instance import Instance
from .learn import ModelBundle, act, discounted_return

CSV_COLUMNS = ("t", "x", "y", "theta", "action", "r_imitation", "r_goal",
               "newly_sensed", "done")


@dataclass
class EpisodeRecord:
    """One evaluated episode.  Arrays are row-per-step; sensed_events lists
    (step index, task index) pairs in sensing order."""

    instance_seed: int
    start_pose: Tuple[float, float, float]
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

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def rewards(self) -> np.ndarray:
        return self.r_imitation + self.r_goal

    def total_reward(self) -> float:
        return float(self.rewards.sum())


@dataclass
class Metrics:
    avg_reward: float
    avg_return: float
    sensing_rate: float
    mean_time: Optional[float]   # None when no episode sensed everything
    episodes: int

    def __post_init__(self):
        if not 0.0 <= self.sensing_rate <= 1.0 + 1e-12:
            raise ValueError(f"sensing_rate {self.sensing_rate} outside [0, 1]")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")


def run_episode(env: DtspnEnv, act_fn: Callable[[Observation], int],
                max_steps: Optional[int] = None) -> EpisodeRecord:
    """Roll one episode to termination.  wall_time covers reset, stepping,
    and act_fn calls, nothing else.  max_steps bounds train-mode envs, which
    otherwise only stop once every task is sensed."""
    t0 = time.perf_counter()
    obs = env.reset()
    poses, actions, r_im, r_go, newly, dones = [], [], [], [], [], []
    events: List[Tuple[int, int]] = [(-1, int(i))
                                     for i in np.nonzero(env.state.sensed)[0]]
    step = 0
    while not env._finished and (max_steps is None or step < max_steps):
        a = act_fn(obs)
        prev = env.state.sensed.copy()
        obs, rew, done, _ = env.step(a)
        p = env.state.pose
        poses.append((p.x, p.y, p.theta))
        actions.append(a)
        r_im.append(rew.imitation)
        r_go.append(rew.goal)
        newly.append(rew.newly_sensed)
        dones.append(done)
        for i in np.nonzero(env.state.sensed != prev)[0]:
            events.append((step, int(i)))
        step += 1
    wall = time.perf_counter() - t0
    sp = env.instance.start
    heading = sp.theta if env.expert_path is None else \
        env.expert_path.waypoints[0].theta
    return EpisodeRecord(
        instance_seed=env.instance.seed,
        start_pose=(sp.x, sp.y, heading),
        poses=np.array(poses, dtype=float).reshape(len(actions), 3),
        actions=np.array(actions, dtype=np.int64),
        r_imitation=np.array(r_im, dtype=float),
        r_goal=np.array(r_go, dtype=float),
        newly_sensed=np.array(newly, dtype=np.int64),
        dones=np.array(dones, dtype=np.uint8),
        sensed_events=events,
        sensed_all=bool(env.state.sensed.all()),
        n_sensed=int(env.state.sensed.sum()),
        wall_time=wall)


def _bundle_act_fn(bundle: ModelBundle, pi_eval: bool, zero_priv: bool):
    pd = bundle.priv_dim
    zeros = np.zeros(pd)

    def fn(obs: Observation) -> int:
        if pi_eval:
            priv = zeros if (zero_priv or obs.privileged is None) \
                else obs.privileged
            return act(bundle, obs.common, True, priv)
        return act(bundle, obs.common, use_privileged=False)

    return fn


def _expert_episode(x: Instance, config: Optional[EnvConfig],
                    n_pos: int, n_head: int) -> EpisodeRecord:
    # plan time is inside the clock on purpose: the expert row's cost is
    # solving plus tracking
    t0 = time.perf_counter()
    config = config_for(x, config)
    path = plan(x, n_pos=n_pos, n_head=n_head, step_dist=config.step_dist)
    # train mode: the expert is scored on its full tour, which can outlast
    # the policy step cap; the bound below matches the demo collector's
    env = DtspnEnv(x, path, mode="train", config=config)

    def fn(obs: Observation) -> int:
        target = track_target(env.state, path)
        return greedy_action(env.state.pose, target, env.config)

    rec = run_episode(env, fn, max_steps=max(4 * len(path.waypoints), 400))
    rec.wall_time = time.perf_counter() - t0
    return rec


def evaluate(policy: Union[ModelBundle, str, Callable[[Observation], int]],
             instances: Sequence[Instance],
             config: Optional[EnvConfig] = None,
             pi_eval: bool = False,
             expert_paths: Optional[Sequence[ExpertPath]] = None,
             n_pos: int = 8, n_head: int = 4,
             gamma: float = 0.95):
    """Run eval-mode episodes over the instances and aggregate Metrics.

    policy is a ModelBundle (adaptation path, or encoder path with pi_eval),
    the string "expert" (plan + greedy tracking, plan time on the clock), or
    a callable observation -> action.  expert_paths, when given, are attached
    to the envs so records carry imitation rewards; they are planned outside
    the timed region.
    """
    if not instances:
        raise ValueError("no instances to evaluate")
    n_tasks = instances[0].n_tasks
    if isinstance(policy, ModelBundle):
        want = 3 + 4 * n_tasks
        if policy.common_dim != want:
            raise ValueError(
                f"checkpoint expects common dim {policy.common_dim}, "
                f"instances with {n_tasks} tasks produce {want}")
        if pi_eval and expert_paths is None:
            expert_paths = [plan(x, n_pos=n_pos, n_head=n_head,
                                 step_dist=config_for(x, config).step_dist)
                            for x in instances]
        act_fn = _bundle_act_fn(policy, pi_eval, zero_priv=False)
    elif policy == "expert":
        act_fn = None
    elif callable(policy):
        act_fn = policy
    else:
        raise ValueError(f"policy must be a bundle, 'expert', or callable, "
                         f"got {type(policy).__name__}")

    records = []
    for k, x in enumerate(instances):
        if act_fn is None:
            rec = _expert_episode(x, config, n_pos, n_head)
        else:
            path = expert_paths[k] if expert_paths is not None else None
            env = DtspnEnv(x, path, mode="eval", config=config)
            rec = run_episode(env, act_fn)
        records.append(rec)

    rates = [r.n_sensed / n_tasks for r in records]
    times = [r.wall_time for r in records if r.sensed_all]
    metrics = Metrics(
        avg_reward=float(np.mean([r.total_reward() for r in records])),
        avg_return=float(np.mean([discounted_return(r.rewards, gamma)
                                  for r in records])),
        sensing_rate=float(np.mean(rates)),
        mean_time=float(np.mean(times)) if times else None,
        episodes=len(records))
    return metrics, records


def benchmark_speed(instances: Sequence[Instance], bundle: ModelBundle,
                    config: Optional[EnvConfig] = None,
                    n_pos: int = 8, n_head: int = 4) -> dict:
    """Median wall-clock of expert plan() vs PI-free policy rollout per
    instance.  The ratio is the headline number; absolute values are
    machine-dependent."""
    if len(instances) < 10:
        raise ValueError(f"need at least 10 instances, got {len(instances)}")
    expert_times = []
    for x in instances:
        t0 = time.perf_counter()
        plan(x, n_pos=n_pos, n_head=n_head,
             step_dist=config_for(x, config).step_dist)
        expert_times.append(time.perf_counter() - t0)
    act_fn = _bundle_act_fn(bundle, pi_eval=False, zero_priv=False)
    policy_times = []
    for x in instances:
        env = DtspnEnv(x, mode="eval", config=config)
        rec = run_episode(env, act_fn)
        policy_times.append(rec.wall_time)
    report = {
        "instances": len(instances),
        "expert_median_s": float(np.median(expert_times)),
        "policy_median_s": float(np.median(policy_times)),
    }
    report["ratio"] = report["expert_median_s"] / report["policy_median_s"]
    return report


def save_episode_csv(record: EpisodeRecord, path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for t in range(len(record)):
            x, y, th = record.poses[t]
            w.writerow([t, repr(float(x)), repr(float(y)), repr(float(th)),
                        int(record.actions[t]),
                        repr(float(record.r_imitation[t])),
                        repr(float(record.r_goal[t])),
                        int(record.newly_sensed[t]),
                        int(record.dones[t])])


def load_episode_csv(path: str) -> dict:
    """Columns back as arrays; a reader for post-hoc recomputation."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header in {path}: "
                         f"{rows[0] if rows else 'empty'}")
    cols = {name: [] for name in CSV_COLUMNS}
    for r in rows[1:]:
        for name, val in zip(CSV_COLUMNS, r):
            cols[name].append(float(val))
    return {k: np.asarray(v) for k, v in cols.items()}
