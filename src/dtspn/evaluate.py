"""Evaluation harness: aggregate metrics over episode records, the
expert-vs-policy speed benchmark, and CSV persistence."""

import csv
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .demos import GAMMA, DemoMeta, make_meta, track
from .env import (PRIV_DIM, DtspnEnv, EnvConfig, EpisodeRecord, Observation,
                  common_width, run_episode)
from .instance import Instance
from .learn import ModelBundle, act, discounted_return

CSV_COLUMNS = ("t", "x", "y", "theta", "action", "r_imitation", "r_goal",
               "newly_sensed", "done")


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


def bundle_actor(bundle: ModelBundle,
                 pi_eval: bool) -> Callable[[Observation], int]:
    """act_fn for run_episode: the adaptation path, or with pi_eval the
    encoder path on the privileged observation (zeros without one)."""
    if not pi_eval:
        return lambda obs: act(bundle, obs.common, use_privileged=False)
    zeros = np.zeros(bundle.priv_dim)
    return lambda obs: act(bundle, obs.common, True,
                           zeros if obs.privileged is None else obs.privileged)


def check_bundle(bundle: ModelBundle, n_tasks: int, config: EnvConfig,
                 source: str = "instances") -> None:
    """ValueError unless bundle takes the common observation of n_tasks and
    the env's privileged observation, and picks one of config's n_actions
    actions."""
    if bundle.common_dim != common_width(n_tasks):
        raise ValueError(f"checkpoint expects common dim {bundle.common_dim}, "
                         f"{source} with {n_tasks} tasks produce "
                         f"{common_width(n_tasks)}")
    if bundle.priv_dim != PRIV_DIM:
        raise ValueError(f"checkpoint expects privileged dim "
                         f"{bundle.priv_dim}, the env produces {PRIV_DIM}")
    if bundle.n_actions != config.n_actions:
        raise ValueError(f"checkpoint has {bundle.n_actions} actions, "
                         f"the env config {config.n_actions}")


def _expert_episode(x: Instance, family: DemoMeta) -> EpisodeRecord:
    # plan time is inside the clock on purpose: the expert row's cost is
    # solving plus tracking
    t0 = time.perf_counter()
    path = family.expert_path(x)
    # train mode: the expert is scored on its full tour, which can outlast
    # the policy step cap; the demo collector's bound applies instead
    _, rec = track(x, path, family.config)
    rec.wall_time = time.perf_counter() - t0
    return rec


def _setup(policy, instances, family, pi_eval):
    """evaluate's set-up: each instance's family, the expert path its env
    carries (planned only with pi_eval) and the act_fn (None for the
    expert).  A bundle is checked against every family before planning."""
    if not instances:
        raise ValueError("no instances to evaluate")
    families = [family or make_meta(x) for x in instances]
    paths = [None] * len(instances)
    if isinstance(policy, ModelBundle):
        for x, f in zip(instances, families):
            check_bundle(policy, x.n_tasks, f.config)
        if pi_eval:
            paths = [f.expert_path(x) for x, f in zip(instances, families)]
        act_fn = bundle_actor(policy, pi_eval)
    elif pi_eval:
        raise ValueError(f"pi_eval needs a ModelBundle policy, got "
                         f"{type(policy).__name__}")
    elif policy == "expert":
        act_fn = None
    elif callable(policy):
        act_fn = policy
    else:
        raise ValueError(f"policy must be a bundle, 'expert', or callable, "
                         f"got {type(policy).__name__}")
    return families, paths, act_fn


def evaluate(policy: Union[ModelBundle, str, Callable[[Observation], int]],
             instances: Sequence[Instance],
             family: Optional[DemoMeta] = None,
             pi_eval: bool = False):
    """Run eval-mode episodes over the instances and aggregate Metrics;
    avg_return discounts by the demonstrations' GAMMA.  The instances run
    under family's env config and are planned with its sampling (by
    default each instance's make_meta family).

    policy is a ModelBundle (adaptation path, or encoder path with pi_eval),
    the string "expert" (plan + greedy tracking, plan time on the clock), or
    a callable observation -> action.  With pi_eval, which only a bundle
    takes, expert paths are planned outside the timed region and attached
    to the envs, so the encoder sees privileged observations and records
    carry imitation rewards.
    """
    families, paths, act_fn = _setup(policy, instances, family, pi_eval)
    records = []
    for x, f, path in zip(instances, families, paths):
        if act_fn is None:
            rec = _expert_episode(x, f)
        else:
            env = DtspnEnv(x, path, mode="eval", config=f.config)
            rec = run_episode(env, act_fn)
        records.append(rec)

    rates = [r.n_sensed / x.n_tasks for r, x in zip(records, instances)]
    times = [r.wall_time for r in records if r.sensed_all]
    metrics = Metrics(
        avg_reward=float(np.mean([r.total_reward() for r in records])),
        avg_return=float(np.mean([discounted_return(r.rewards, GAMMA)
                                  for r in records])),
        sensing_rate=float(np.mean(rates)),
        mean_time=float(np.mean(times)) if times else None,
        episodes=len(records))
    return metrics, records


def benchmark_speed(instances: Sequence[Instance], bundle: ModelBundle,
                    family: Optional[DemoMeta] = None) -> dict:
    """Median wall-clock of the family's expert plan (see evaluate) vs
    PI-free policy rollout (an eval episode's wall_time, as evaluate runs
    it) per instance.  Each instance is planned and then rolled out before
    the next, so a slow spell of a shared machine reaches both halves.  The
    ratio is the headline number; absolute values are machine-dependent."""
    if len(instances) < 10:
        raise ValueError(f"need at least 10 instances, got {len(instances)}")
    families, _, act_fn = _setup(bundle, instances, family, False)
    expert_times, policy_times = [], []
    for x, f in zip(instances, families):
        t0 = time.perf_counter()
        f.expert_path(x)
        expert_times.append(time.perf_counter() - t0)
        env = DtspnEnv(x, mode="eval", config=f.config)
        policy_times.append(run_episode(env, act_fn).wall_time)
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
