"""
From demonstrations to a standalone policy
==========================================

Training runs in four moves.  Clone the expert with the waypoint context
it enjoyed (behavioral cloning on privileged observations), fit a value
head on the recorded returns, fine-tune with on-policy updates under the
shaped reward, then distill the privileged encoder into an adaptation net
so deployment needs nothing but the common observation.

Everything here is toy-sized so the script finishes in about a minute;
the same calls scale to the real corpus.
"""

import numpy as np

from dtspn import TrainConfig, generate, init_bundle
from dtspn.demos import DemoMeta, collect_batch
from dtspn.evaluate import evaluate
from dtspn.learn import bc_pretrain, critic_init, distill_adaptation, ppo_finetune

family = DemoMeta(n_tasks=3, map_width=300.0, map_height=300.0)
dataset, _ = collect_batch(family, 60)
cfg = TrainConfig(seed=0, bc_epochs=25)

bundle = init_bundle(common_dim=family.common_dim, seed=0)
bundle, bc_metrics = bc_pretrain(dataset, bundle, cfg)
print(f"cloning: val accuracy {bc_metrics['val_acc'][0]:.3f} -> "
      f"{bc_metrics['val_acc'][-1]:.3f} over {len(bc_metrics['val_acc'])} epochs")

_, cr_metrics = critic_init(dataset, bundle, cfg, epochs=6)
print(f"critic fit: val mse {cr_metrics['val_mse'][-1]:.3f}")

# a small pool of planned instances feeds the on-policy phase
factory = family.train_envs(1000, 8)
bundle, curve = ppo_finetune(factory, bundle, TrainConfig(seed=0, steps_budget=8192))
shown = ["nan" if not np.isfinite(v) else f"{v:.1f}" for v in curve]
print(f"ppo: {len(curve)} batches, mean episode reward per batch: "
      f"{', '.join(shown)}")

_, di = distill_adaptation(dataset, bundle, cfg, epochs=15)
print(f"distillation: held-out latent mse {di['heldout_mse']:.2f} "
      f"(latent variance {di['heldout_z_variance']:.2f}), "
      f"action agreement {di['action_agreement']:.3f}")

# the distilled policy now runs from common observations alone
insts = [generate(3, 5000 + i, map_size=(300.0, 300.0)) for i in range(10)]
metrics, _ = evaluate(bundle, insts)
print(f"deployment eval on {metrics.episodes} fresh instances: "
      f"sensing rate {metrics.sensing_rate:.2f}, "
      f"avg reward {metrics.avg_reward:.1f}")
