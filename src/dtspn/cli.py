"""Command-line front end.  One subcommand per pipeline stage; every stage
prints a single machine-readable `key=value` summary line on success.

Exit codes: 0 success, 1 validation error (bad flags, missing or malformed
files, dimension mismatches), 2 runtime failure (tracking/planning/training
blowups)."""

import argparse
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import expert as expert_mod
from . import instance as instance_mod
from .demos import (collect_batch, greedy_action, load_dataset, save_dataset,
                    track_target)
from .env import DtspnEnv, EnvConfig
from .evaluate import benchmark_speed, evaluate, run_episode, save_episode_csv
from .expert import SensingGap, plan
from .learn import (TrainConfig, act, bc_pretrain, critic_init,
                    distill_adaptation, init_bundle, load_bundle,
                    ppo_finetune, save_bundle)
from .svg import emit_trajectory_svg

_ENV_FIELDS = set(EnvConfig.__dataclass_fields__)
_TRAIN_FIELDS = set(TrainConfig.__dataclass_fields__)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _summary(stage: str, **kv) -> None:
    parts = [f"stage={stage}"] + [f"{k}={_fmt(v)}" for k, v in kv.items()]
    print(" ".join(parts))


def _load_config(path: Optional[str]):
    """Split a flat JSON dict into env-config and train-config overrides.
    Unknown keys are a validation error naming the offending token."""
    if path is None:
        return {}, {}
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object, "
                         f"got {type(raw).__name__}")
    env_kw, train_kw = {}, {}
    for key, val in raw.items():
        if key in _ENV_FIELDS:
            env_kw[key] = val
        elif key in _TRAIN_FIELDS:
            train_kw[key] = val
        else:
            raise ValueError(f"config {path}: unknown key '{key}'")
    return env_kw, train_kw


def _env_config(args, env_kw) -> EnvConfig:
    kw = dict(env_kw)
    kw.setdefault("turn_radius", args.turn)
    if getattr(args, "literal_eq7", False):
        kw["literal_goal_sum"] = True
    return EnvConfig(**kw)


def _train_config(args, train_kw) -> TrainConfig:
    kw = dict(train_kw)
    kw.setdefault("seed", args.seed)
    if getattr(args, "steps", None) is not None:
        kw["steps_budget"] = args.steps
    return TrainConfig(**kw)


def _instances(args, count: int):
    return [instance_mod.generate(args.tasks, args.seed + i,
                                  map_size=tuple(args.map),
                                  r_sense=args.sense, turn_radius=args.turn)
            for i in range(count)]


def _need_out(args, stage: str) -> str:
    if args.out is None:
        raise ValueError(f"{stage} requires --out PATH")
    return args.out


def _load_instance_or_gen(args):
    if getattr(args, "instance", None) is not None:
        return instance_mod.load(args.instance)
    return _instances(args, 1)[0]


def cmd_gen(args) -> int:
    out = _need_out(args, "gen")
    inst = _instances(args, 1)[0]
    instance_mod.save(inst, out)
    _summary("gen", tasks=inst.n_tasks, seed=inst.seed, out=out)
    return 0


def cmd_expert(args) -> int:
    out = _need_out(args, "expert")
    env_kw, _ = _load_config(args.config)
    cfg = _env_config(args, env_kw)
    inst = _load_instance_or_gen(args)
    path = plan(inst, n_pos=args.pos, n_head=args.heads, seed=args.seed,
                step_dist=cfg.step_dist)
    expert_mod.save(path, out)
    _summary("expert", tasks=inst.n_tasks, length=path.total_length,
             waypoints=len(path.waypoints), solve_s=path.solve_time, out=out)
    return 0


def cmd_demos(args) -> int:
    out = _need_out(args, "demos")
    env_kw, _ = _load_config(args.config)
    cfg = _env_config(args, env_kw)
    dataset, report = collect_batch(
        args.demos, base_seed=args.seed, n_tasks=args.tasks,
        map_size=tuple(args.map), r_sense=args.sense, turn_radius=args.turn,
        n_pos=args.pos, n_head=args.heads, config=cfg)
    save_dataset(dataset, out)
    _summary("demos", accepted=report["accepted"],
             attempted=report["attempted"],
             accept_rate=report["accept_rate"], out=out)
    return 0


def cmd_train_bc(args) -> int:
    out = _need_out(args, "train-bc")
    _, train_kw = _load_config(args.config)
    tc = _train_config(args, train_kw)
    dataset = load_dataset(args.data)
    meta = dataset.meta
    bundle = init_bundle(meta.common_dim, meta.priv_dim,
                         n_actions=meta.n_actions, seed=tc.seed)
    _, metrics = bc_pretrain(dataset, bundle, tc)
    _, critic = critic_init(dataset, bundle, tc)
    save_bundle(bundle, out)
    _summary("train-bc", demos=len(dataset), epochs=tc.bc_epochs,
             val_acc=metrics["val_acc"][-1], val_loss=metrics["val_loss"][-1],
             critic_val_mse=critic["val_mse"][-1], out=out)
    return 0


def cmd_train_ppo(args) -> int:
    out = _need_out(args, "train-ppo")
    env_kw, train_kw = _load_config(args.config)
    tc = _train_config(args, train_kw)
    cfg = _env_config(args, env_kw)
    use_privileged = not args.dense
    if args.ckpt is not None:
        bundle = load_bundle(args.ckpt)
    elif args.dense:
        bundle = init_bundle(3 + 4 * args.tasks, seed=tc.seed)
    else:
        raise ValueError("train-ppo requires --ckpt PATH (or --dense for a "
                         "from-scratch baseline)")

    pool = []
    seed, want = args.seed, args.pool
    while len(pool) < want:
        inst = instance_mod.generate(args.tasks, seed,
                                     map_size=tuple(args.map),
                                     r_sense=args.sense,
                                     turn_radius=args.turn)
        seed += 1
        if use_privileged:
            try:
                pool.append((inst, plan(inst, n_pos=args.pos,
                                        n_head=args.heads,
                                        step_dist=cfg.step_dist)))
            except SensingGap:
                continue
        else:
            pool.append((inst, None))
        if seed - args.seed > 4 * want + 40:
            raise RuntimeError("could not assemble a training pool: too many "
                               "instances failed expert planning")
    counter = [0]

    def env_factory() -> DtspnEnv:
        inst, epath = pool[counter[0] % len(pool)]
        counter[0] += 1
        return DtspnEnv(inst, epath, mode="train", config=cfg)

    t0 = time.perf_counter()
    _, curve = ppo_finetune(env_factory, bundle, tc,
                            use_privileged=use_privileged,
                            critic_warmup_steps=args.warmup)
    save_bundle(bundle, out)
    finite = [c for c in curve if np.isfinite(c)]
    _summary("train-ppo", steps=tc.steps_budget, pool=len(pool),
             best_avg_return=max(finite) if finite else float("nan"),
             last_avg_return=curve[-1], wall_s=time.perf_counter() - t0,
             out=out)
    return 0


def cmd_distill(args) -> int:
    out = _need_out(args, "distill")
    _, train_kw = _load_config(args.config)
    tc = _train_config(args, train_kw)
    dataset = load_dataset(args.data)
    bundle = load_bundle(args.ckpt)
    _, metrics = distill_adaptation(dataset, bundle, tc, epochs=args.epochs)
    save_bundle(bundle, out)
    _summary("distill", epochs=args.epochs,
             heldout_mse=metrics["heldout_mse"],
             heldout_z_variance=metrics["heldout_z_variance"],
             action_agreement=metrics["action_agreement"], out=out)
    return 0


def cmd_eval(args) -> int:
    env_kw, _ = _load_config(args.config)
    cfg = _env_config(args, env_kw)
    if getattr(args, "instance", None) is not None:
        instances = [instance_mod.load(args.instance)]
    else:
        instances = _instances(args, args.episodes)
    if args.expert:
        policy = "expert"
    else:
        if args.ckpt is None:
            raise ValueError("eval requires --ckpt PATH or --expert")
        policy = load_bundle(args.ckpt)
    metrics, records = evaluate(policy, instances, config=cfg,
                                pi_eval=args.pi_eval,
                                n_pos=args.pos, n_head=args.heads)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        for i, rec in enumerate(records):
            save_episode_csv(rec, os.path.join(args.out,
                                               f"episode_{i:04d}.csv"))
        agg = {"avg_reward": metrics.avg_reward,
               "avg_return": metrics.avg_return,
               "sensing_rate": metrics.sensing_rate,
               "episodes": metrics.episodes}
        if metrics.mean_time is not None:
            agg["mean_time"] = metrics.mean_time
        with open(os.path.join(args.out, "metrics.json"), "w") as f:
            json.dump(agg, f, indent=1, sort_keys=True)
            f.write("\n")
    kv = dict(episodes=metrics.episodes, sensing_rate=metrics.sensing_rate,
              avg_reward=metrics.avg_reward, avg_return=metrics.avg_return)
    if metrics.mean_time is not None:
        kv["mean_time"] = metrics.mean_time
    if args.out is not None:
        kv["out"] = args.out
    _summary("eval", **kv)
    return 0


def cmd_bench(args) -> int:
    env_kw, _ = _load_config(args.config)
    cfg = _env_config(args, env_kw)
    bundle = load_bundle(args.ckpt)
    instances = _instances(args, args.episodes)
    report = benchmark_speed(instances, bundle, config=cfg,
                             n_pos=args.pos, n_head=args.heads)
    _summary("bench", instances=report["instances"],
             expert_median_s=report["expert_median_s"],
             policy_median_s=report["policy_median_s"],
             ratio=report["ratio"])
    return 0


def cmd_plot(args) -> int:
    out = _need_out(args, "plot")
    env_kw, _ = _load_config(args.config)
    cfg = _env_config(args, env_kw)
    inst = _load_instance_or_gen(args)
    epath = plan(inst, n_pos=args.pos, n_head=args.heads,
                 step_dist=cfg.step_dist)
    # the expert path rides along even for policy plots: it supplies the
    # dashed overlay and the imitation column of the record
    env = DtspnEnv(inst, epath, mode="eval", config=cfg)
    if args.expert or args.ckpt is None:
        def act_fn(obs):
            return greedy_action(env.state.pose,
                                 track_target(env.state, epath), env.config)
    else:
        bundle = load_bundle(args.ckpt)
        if args.pi_eval:
            def act_fn(obs):
                return act(bundle, obs.common, True, obs.privileged)
        else:
            def act_fn(obs):
                return act(bundle, obs.common, use_privileged=False)
    record = run_episode(env, act_fn)
    emit_trajectory_svg(record, inst, expert_path=epath, path=out)
    _summary("plot", steps=len(record), sensed=record.n_sensed,
             tasks=inst.n_tasks, out=out)
    return 0


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=20)
    p.add_argument("--map", nargs=2, type=float, default=(800.0, 800.0),
                   metavar=("W", "H"))
    p.add_argument("--sense", type=float, default=58.0, metavar="R")
    p.add_argument("--turn", type=float, default=30.0, metavar="RHO")
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.add_argument("--config", type=str, default=None, metavar="PATH",
                   help="JSON file of env/train config overrides")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pos", type=int, default=8,
                   help="candidate positions per sensing circle")
    p.add_argument("--heads", type=int, default=4,
                   help="candidate headings per position")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtspn",
        description="Dubins multi-point sensing: expert planner, simulator, "
                    "demonstration pipeline, and learned controller.")
    sub = parser.add_subparsers(dest="stage", required=True)

    p = sub.add_parser("gen", help="write a random problem instance")
    _add_shared(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("expert", help="plan an expert path for one instance")
    _add_shared(p)
    _add_sampling(p)
    p.add_argument("--instance", type=str, default=None, metavar="PATH")
    p.set_defaults(func=cmd_expert)

    p = sub.add_parser("demos", help="collect expert demonstrations")
    _add_shared(p)
    _add_sampling(p)
    p.add_argument("--demos", type=int, default=100, metavar="N")
    p.add_argument("--literal-eq7", action="store_true",
                   help="pay the mid-episode goal bonus on the cumulative "
                        "sensed count instead of newly sensed tasks")
    p.set_defaults(func=cmd_demos)

    p = sub.add_parser("train-bc",
                       help="behavior cloning + critic warm start")
    _add_shared(p)
    p.add_argument("--data", type=str, required=True, metavar="PATH",
                   help="demonstration dataset")
    p.set_defaults(func=cmd_train_bc)

    p = sub.add_parser("train-ppo", help="on-policy fine-tuning")
    _add_shared(p)
    _add_sampling(p)
    p.add_argument("--ckpt", type=str, default=None, metavar="PATH")
    p.add_argument("--steps", type=int, default=None, metavar="N",
                   help="environment step budget")
    p.add_argument("--pool", type=int, default=32, metavar="N",
                   help="training instance pool size")
    p.add_argument("--warmup", type=int, default=0, metavar="N",
                   help="critic-only steps before joint updates")
    p.add_argument("--dense", action="store_true",
                   help="from-scratch baseline: fresh nets, no privileged "
                        "encoder input")
    p.add_argument("--literal-eq7", action="store_true")
    p.set_defaults(func=cmd_train_ppo)

    p = sub.add_parser("distill",
                       help="fit the adaptation net to encoder outputs")
    _add_shared(p)
    p.add_argument("--data", type=str, required=True, metavar="PATH")
    p.add_argument("--ckpt", type=str, required=True, metavar="PATH")
    p.add_argument("--epochs", type=int, default=20, metavar="N")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", help="run eval episodes and report metrics")
    _add_shared(p)
    _add_sampling(p)
    p.add_argument("--ckpt", type=str, default=None, metavar="PATH")
    p.add_argument("--expert", action="store_true",
                   help="replay the expert instead of a checkpoint")
    p.add_argument("--instance", type=str, default=None, metavar="PATH",
                   help="evaluate this instance file instead of generating")
    p.add_argument("--episodes", type=int, default=50, metavar="N")
    p.add_argument("--pi-eval", action="store_true",
                   help="use the encoder on expert privileged obs instead "
                        "of the adaptation net")
    p.add_argument("--literal-eq7", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="expert vs policy wall-clock benchmark")
    _add_shared(p)
    _add_sampling(p)
    p.add_argument("--ckpt", type=str, required=True, metavar="PATH")
    p.add_argument("--episodes", type=int, default=10, metavar="N")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="render one episode as SVG")
    _add_shared(p)
    _add_sampling(p)
    p.add_argument("--ckpt", type=str, default=None, metavar="PATH")
    p.add_argument("--expert", action="store_true")
    p.add_argument("--instance", type=str, default=None, metavar="PATH")
    p.add_argument("--pi-eval", action="store_true")
    p.add_argument("--literal-eq7", action="store_true")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags (after printing the offending
        # token); fold that into the validation-error code
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
