"""
The simulator and its two reward channels
=========================================

The environment advances the vehicle by exact arc segments at a fixed
speed, one of seven turn rates per step.  Training shapes behavior with a
dense imitation term (stay near the expert's track) plus a sparse goal
term (sense tasks, finish the set); evaluation reads the goal term only.
"""

from dtspn import DtspnEnv, EnvConfig, generate, plan
from dtspn.demos import tracker
from dtspn.env import goal_reward, imitation_reward, run_episode

# the imitation term is deliberately lumpy: 0 up to 5 m, then a parabola
# from +0.1 down to -24.1 at the 60 m cutoff, then a flat -10
for r in (0.0, 3.0, 5.0, 10.0, 30.0, 60.0, 61.0, 200.0):
    print(f"  distance {r:5.1f} m -> imitation reward {imitation_reward(r):8.3f}")

# the goal term pays a small keep-alive, a bounty per newly sensed task,
# and a jackpot for clearing the set
print("step, 0 new:", goal_reward(0, False))
print("step, 1 new:", goal_reward(1, False))
print("last task:  ", goal_reward(2, True))

x = generate(n_tasks=6, seed=11, map_size=(400.0, 400.0))
path = plan(x)
env = DtspnEnv(x, path, mode="eval", config=EnvConfig())
# env.batch is the env's one-row simulator; run_episode resets and steps it
env.batch.reset()
print(f"observation: common {env.batch.common.shape[1]} dims, "
      f"privileged {env.batch.privileged.shape[1]} dims")

# drive with the greedy tracker and watch both channels accumulate
rec = run_episode(env, tracker(env))
t = len(rec)
print(f"greedy tracking: {t} steps, imitation total "
      f"{rec.r_imitation.sum():.2f}, goal total {rec.r_goal.sum():.2f}, "
      f"sensed {rec.n_sensed}/6")

# a straight-line driver ignores the track and pays for it
env2 = DtspnEnv(x, path, mode="eval", config=EnvConfig())
straight = env2.config.n_actions // 2
rec2 = run_episode(env2, lambda obs: straight, max_steps=t)
print(f"always-straight driver over the same horizon: "
      f"imitation {rec2.r_imitation.sum():.2f}")
