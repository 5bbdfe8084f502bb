"""
Recording expert demonstrations to a binary corpus
==================================================

Demonstrations are expert tours replayed through the simulator and
recorded as observation/action/reward streams.  A demo is only accepted
when the replay senses every task, so the corpus is all success stories.
The container format round-trips bit-for-bit.
"""

import os

import numpy as np

from dtspn.demos import (DemoMeta, collect_batch, load_dataset, replay_rewards,
                         save_dataset)

# the instance family: 5 tasks on a 400 m map, the other fields at their
# defaults; the dataset's header records it, which is what replay reads
family = DemoMeta(n_tasks=5, map_width=400.0, map_height=400.0)
dataset, report = collect_batch(family, 20, base_seed=100)
print(f"accepted {report['accepted']} of {report['attempted']} attempts "
      f"(rate {report['accept_rate']:.2f})")

lengths = [len(d.actions) for d in dataset]
print(f"episode lengths: min {min(lengths)}, median "
      f"{int(np.median(lengths))}, max {max(lengths)}")
print(f"returns: undiscounted {np.mean([d.return_undiscounted for d in dataset]):.1f}, "
      f"discounted {np.mean([d.return_discounted for d in dataset]):.1f} on average")

# action usage skews toward straight-and-gentle: the expert track is
# mostly long arcs
hist = np.bincount(np.concatenate([d.actions for d in dataset]), minlength=7)
print("action histogram:", hist.tolist())

save_dataset(dataset, "demos_5task.bin")
back = load_dataset("demos_5task.bin")
same = all(np.array_equal(a.commons, b.commons)
           and np.array_equal(a.actions, b.actions)
           and np.array_equal(a.rewards, b.rewards)
           for a, b in zip(dataset, back))
print(f"wrote demos_5task.bin ({os.path.getsize('demos_5task.bin')} bytes), "
      f"round-trip identical: {same}")

# rewards are not stored on faith: re-simulating the recorded actions
# reproduces them exactly
d = back[0]
print("replay matches stored rewards:",
      np.array_equal(replay_rewards(d, back.meta), d.rewards))
