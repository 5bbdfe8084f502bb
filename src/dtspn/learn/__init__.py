"""Learning stack: networks with exact gradients, behavioral cloning,
PPO fine-tuning, and adaptation distillation."""

from .bc import (bc_pretrain, critic_init, discounted_return, episode_split,
                 return_to_go)
from .config import TrainConfig
from .distill import distill_adaptation
from .nets import (AdamState, CheckpointError, ModelBundle, NetworkParams,
                   act, adam_step, backward, forward_cached, init_bundle,
                   init_network, load_bundle, sample_categorical, save_bundle)
from .ppo import clipped_surrogate, compute_gae, ppo_finetune

__all__ = [
    "AdamState", "CheckpointError", "ModelBundle", "NetworkParams",
    "TrainConfig", "act", "adam_step", "backward", "bc_pretrain",
    "clipped_surrogate", "compute_gae", "critic_init", "discounted_return",
    "distill_adaptation", "episode_split", "forward_cached", "init_bundle",
    "init_network", "load_bundle", "ppo_finetune", "return_to_go",
    "sample_categorical", "save_bundle",
]
