"""
Scoring policies and rendering episodes
=======================================

The evaluator rolls eval-mode episodes, aggregates sensing rate and
rewards, and keeps per-step records that can be written to CSV or drawn
as an SVG map.  It takes trained checkpoints, the expert, or any plain
function from observation to action.
"""

import numpy as np

from dtspn import generate
from dtspn.env import common_width
from dtspn.evaluate import (benchmark_speed, evaluate, load_episode_csv,
                            save_episode_csv)
from dtspn.learn import init_bundle
from dtspn.svg import emit_trajectory_svg

insts = [generate(n_tasks=8, seed=600 + i, map_size=(500.0, 500.0))
         for i in range(5)]

# the expert scores a clean sweep by construction
m_exp, recs = evaluate("expert", insts)
print(f"expert: sensing {m_exp.sensing_rate:.2f}, "
      f"avg reward {m_exp.avg_reward:.1f}, "
      f"mean wall time {m_exp.mean_time:.2f} s")

# any callable works as a policy; this one circles in place and fails
m_circ, _ = evaluate(lambda obs: 0, insts)
print(f"hard-left policy: sensing {m_circ.sensing_rate:.2f}, "
      f"avg reward {m_circ.avg_reward:.1f}")

# per-step records round-trip through CSV exactly, column by column
rec = recs[0]
save_episode_csv(rec, "episode.csv")
back = load_episode_csv("episode.csv")
print("csv round-trip exact:",
      np.array_equal(np.c_[back["x"], back["y"], back["theta"]], rec.poses)
      and np.array_equal(back["action"].astype(int), rec.actions))

emit_trajectory_svg(rec, insts[0], path="episode.svg")
print("wrote episode.csv and episode.svg")

# rollout speed is what the learned policy is for: same decision cadence,
# none of the tour solving
bench = benchmark_speed([generate(20, 700 + i) for i in range(10)],
                        init_bundle(common_dim=common_width(20), seed=0))
print(f"20-task timing: expert {bench['expert_median_s']*1e3:.0f} ms, "
      f"policy {bench['policy_median_s']*1e3:.1f} ms, "
      f"ratio {bench['ratio']:.0f}x")
