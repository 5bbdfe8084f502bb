"""Training hyperparameters shared by BC, PPO, and distillation."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.95
    bc_lr: float = 0.001
    bc_batch: int = 512
    bc_epochs: int = 20
    ppo_actor_lr: float = 0.003
    ppo_critic_lr: float = 0.001
    ppo_clip: float = 0.2
    gae_lambda: float = 0.95
    entropy_coef: float = 0.01
    steps_budget: int = 3_000_000
    rollout_steps: int = 4096
    minibatch: int = 512
    epochs_per_batch: int = 4
    seed: int = 0

    def __post_init__(self):
        # zero learning rates are allowed: they make a pass a recorded no-op,
        # which is how "train only the critic" style stages are expressed
        for name in ("bc_lr", "ppo_actor_lr", "ppo_critic_lr", "entropy_coef"):
            if not 0.0 <= getattr(self, name) < math.inf:    # NaN fails too
                raise ValueError(f"{name} must be >= 0 and finite, "
                                 f"got {getattr(self, name)}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 < self.ppo_clip < 1.0:
            raise ValueError(f"ppo_clip must be in (0, 1), got {self.ppo_clip}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        for name in ("bc_batch", "minibatch", "epochs_per_batch", "rollout_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.bc_epochs < 0 or self.steps_budget < 0:
            raise ValueError("bc_epochs and steps_budget must be >= 0")
