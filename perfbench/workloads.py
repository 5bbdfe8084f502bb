"""The benchmark's two workloads, their output checks and their metrics.

Both workloads run the same closed-loop pipeline, one call at a time, on
instances generated from the run's seed:

  plan() + collect() + one PI-free episode of an untrained bundle per
  instance -> save/load round trip -> replay of a few demos -> bc_pretrain ->
  critic_init -> ppo_finetune on the accepted (instance, plan) pairs ->
  distill_adaptation -> evaluate() on held-out instances.

They differ in scale, which shifts where the time goes: ``plan-20`` plans at
deployment scale (20 tasks, 800 m map) and spends almost all its time in the
planner; ``train-3`` is the desk-scale training pipeline (3 tasks, 300 m map)
and spends most of its time in the simulator and the networks.  See
README.md for the metric -> layer -> workload table.
"""

import hashlib
import importlib
import itertools
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

# Sizes below are the work done in a run of REF_SECONDS; --seconds scales the
# instance counts and the PPO budget linearly.  Epoch counts do not scale, so
# a run's learned-quality metrics depend only on (seed, seconds).
REF_SECONDS = 50
SETUP_REPEATS = 9
# SpeedProbe's (interpreter, batch) kernel times on the reference machine
# (2-core x86-64, Python 3.11, numpy 2.4, one BLAS thread), so adjusted
# values read in ms and 1/s of that machine
PROBE_REF_S = (1.2e-3, 1.3e-3)
PPO_PROBE_EVERY_S = 0.2
# Cloning and distillation run as this many back-to-back calls, each of
# 1/TRAIN_CALLS of the epochs, so the probe can be taken between them; each
# call starts a fresh optimizer state on the same split
TRAIN_CALLS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n_tasks: int
    map_side: float
    seed_base: int
    instances: int
    heldout: int
    ppo_steps: int
    bc_epochs: int
    critic_epochs: int
    distill_epochs: int
    replays: int

    @property
    def common_dim(self) -> int:
        return 3 + 4 * self.n_tasks


WORKLOADS = {w.name: w for w in (
    Workload(
        name="plan-20",
        n_tasks=20, map_side=800.0, seed_base=200_000,
        instances=20, heldout=48, ppo_steps=4096,
        bc_epochs=32, critic_epochs=5, distill_epochs=48, replays=0),
    Workload(
        name="train-3",
        n_tasks=3, map_side=300.0, seed_base=300_000,
        instances=60, heldout=60, ppo_steps=40960,
        bc_epochs=80, critic_epochs=20, distill_epochs=200, replays=3),
)}


@dataclass(frozen=True)
class Sizes:
    instances: int
    heldout: int
    ppo_steps: int
    rollout_steps: int


def sizes_for(wl: Workload, seconds: float) -> Sizes:
    scale = seconds / REF_SECONDS
    steps = max(1024, 1024 * round(wl.ppo_steps * scale / 1024))
    return Sizes(instances=max(2, round(wl.instances * scale)),
                 heldout=max(2, round(wl.heldout * scale)),
                 ppo_steps=steps, rollout_steps=min(4096, steps))


class CheckFailed(Exception):
    """An output check found a wrong result."""


class StageFailed(Exception):
    """A training stage raised; the rest of the pipeline cannot run."""


def fresh_import(src_dir):
    """Import dtspn from src_dir, dropping any copy imported earlier, so each
    set-up pays the package's import cost again."""
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    for name in [m for m in sys.modules
                 if m == "dtspn" or m.startswith("dtspn.")]:
        del sys.modules[name]
    return importlib.import_module("dtspn")


@dataclass
class Inputs:
    dt: object              # the imported dtspn package
    ev: object              # dtspn.evaluate (the package name is the function)
    instances: list
    heldout: list
    fresh: object           # untrained bundle for the PI-free rollouts
    bundle: object          # bundle that the pipeline trains


def set_up(src_dir, wl: Workload, seed: int, sizes: Sizes) -> Inputs:
    dt = fresh_import(src_dir)
    base = wl.seed_base + 1000 * seed
    side = (wl.map_side, wl.map_side)
    return Inputs(
        dt=dt, ev=importlib.import_module("dtspn.evaluate"),
        instances=[dt.generate(wl.n_tasks, base + i, map_size=side)
                   for i in range(sizes.instances)],
        heldout=[dt.generate(wl.n_tasks, base + 500 + i, map_size=side)
                 for i in range(sizes.heldout)],
        fresh=dt.init_bundle(common_dim=wl.common_dim, seed=0),
        bundle=dt.init_bundle(common_dim=wl.common_dim, seed=seed))


def distribution(values):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (None up to 20 samples, where it would not exceed the
    median)."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "tail_pct": None, "tail": None}
    if n > 20:
        pct = math.floor(100 * (n - 10) / n)
        out["tail_pct"] = pct
        out["tail"] = float(np.percentile(values, pct))
    return out


def check_path(x, path, step_dist):
    """Independent re-check of a planned path: it starts at the start
    position, consecutive waypoints are at most one env step apart, and some
    waypoint lies within sensing range of every task."""
    w = np.array([(p.x, p.y) for p in path.waypoints])
    if abs(w[0, 0] - x.start.x) > 1e-9 or abs(w[0, 1] - x.start.y) > 1e-9:
        raise CheckFailed(f"instance {x.seed}: first waypoint {w[0]} is not "
                          f"the start ({x.start.x}, {x.start.y})")
    if len(w) > 1:
        gap = float(np.hypot(*np.diff(w, axis=0).T).max())
        if gap > step_dist * (1 + 1e-9):
            raise CheckFailed(f"instance {x.seed}: waypoint spacing {gap} "
                              f"exceeds {step_dist}")
    tasks = np.asarray(x.tasks)
    d = np.hypot(w[:, None, 0] - tasks[None, :, 0],
                 w[:, None, 1] - tasks[None, :, 1]).min(axis=0)
    if d.max() > x.r_sense:
        t = int(d.argmax())
        raise CheckFailed(f"instance {x.seed}: task {t} closest approach "
                          f"{d[t]} m > r_sense {x.r_sense}")


def _same_demo(a, b) -> bool:
    arrays = ("commons", "privileged", "actions", "rewards", "dones")
    return (all(getattr(a, k).dtype == getattr(b, k).dtype and
                getattr(a, k).tobytes() == getattr(b, k).tobytes()
                for k in arrays) and
            (a.seed, a.sensed_all, a.return_undiscounted, a.return_discounted)
            == (b.seed, b.sensed_all, b.return_undiscounted,
                b.return_discounted))


def params_digest(bundle) -> str:
    h = hashlib.sha256()
    for net in (bundle.encoder, bundle.policy, bundle.critic,
                bundle.adaptation):
        for a in net.weights + net.biases:
            h.update(a.tobytes())
    return h.hexdigest()


class SpeedProbe:
    """Times two fixed kernels that belong to the benchmark, not to dtspn.

    On the shared 2-core machine the benchmark was tuned on, the same code
    runs 15-50 % slower for stretches of half a second to tens of seconds.
    Each probe times two kernels: an interpreter loop plus small tanh/matvec
    steps, like a simulator step or the planner's local search, and a batch
    of (256 x 96) @ (96 x 128) products, like a training minibatch.  Over 90 s
    of back-to-back work the 20-task rollout time moved by up to 75 % between
    7 s windows and rollout / first kernel by 9 %; a cloning minibatch moved
    by 10 % (CV of 7 s windows) and minibatch / second kernel by 1 %.  Probes
    are taken between set-ups, between instances, between the calls of each
    training stage and between PPO episodes; each stretch of work between two
    probes is divided by their mean slowdown against PROBE_REF_S.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(-0.2, 0.2, (32, 32))
        self._v = rng.uniform(-1.0, 1.0, 32)
        self._x = rng.uniform(-1.0, 1.0, (256, 96))
        self._w = rng.uniform(-0.1, 0.1, (96, 128))
        self.marks = []     # (start, end, interp slowdown, batch slowdown)

    def _interp(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(5000):
            acc += math.sin(i)
        v = self._v
        for _ in range(250):
            v = np.tanh(self._a @ v + acc * 1e-9)
        return time.perf_counter() - t0

    def _batch(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            h = np.tanh(self._x @ self._w)
            h.T @ self._x
        return time.perf_counter() - t0

    def mark(self):
        t0 = time.perf_counter()
        interp = min(self._interp() for _ in range(3)) / PROBE_REF_S[0]
        batch = min(self._batch() for _ in range(3)) / PROBE_REF_S[1]
        self.marks.append((t0, time.perf_counter(), interp, batch))

    def last_slowdown(self) -> float:
        """Mean interpreter slowdown of the last two probes."""
        return 0.5 * (self.marks[-1][2] + self.marks[-2][2])

    def stretches(self, first=0, batch=False):
        """(raw, adjusted) seconds of each stretch between two consecutive
        probes from probe `first` on; probe time is not included."""
        k = 3 if batch else 2
        return [(start - end, (start - end) / (0.5 * (a[k] + b[k])))
                for a, b in zip(self.marks[first:], self.marks[first + 1:])
                for start, end in [(b[0], a[1])]]


class Run:
    """One pass of the pipeline; fills metrics, outputs and failure counts."""

    def __init__(self, wl: Workload, inputs: Inputs, sizes: Sizes, seed: int,
                 out_dir: str, probe: SpeedProbe, traced: bool):
        self.wl, self.inp, self.sizes, self.seed = wl, inputs, sizes, seed
        self.out_dir, self.probe, self.traced = out_dir, probe, traced
        self.attempted = 0
        self.failures = []          # (operation, instance seed, reason)
        self.walls = {}             # stage -> raw seconds
        self.adjusted = {}          # stage -> speed-adjusted seconds
        self.e2e = {}               # metric -> (value, unit)
        self.raw = {}               # metric -> value before the speed probe
        self.info = {}
        self.outputs = {}

    def _op(self, what, seed, fn, *errors):
        """One counted operation; the listed errors count as failures."""
        self.attempted += 1
        try:
            return fn()
        except errors as e:
            self.failures.append((what, seed, f"{type(e).__name__}: {e}"))
            return None

    def _stage(self, name, fn, calls=1, batch=False):
        """A stage run as `calls` back-to-back calls of fn, with a probe
        before, between and after them, adjusted by the batch kernel when
        `batch`; returns the last call's result.  A RuntimeError is a
        counted failure."""
        first = len(self.probe.marks)
        self.probe.mark()
        for _ in range(calls):
            out = self._op(name, self.seed, fn, RuntimeError)
            self.probe.mark()
            if out is None:
                raise StageFailed(name)
        raw, adj = zip(*self.probe.stretches(first, batch))
        self.walls[name], self.adjusted[name] = sum(raw), sum(adj)
        return out

    def _rate(self, metric, work, stage):
        self.e2e[metric] = (work / self.adjusted[stage], "1/s")
        self.raw[metric] = work / self.walls[stage]

    def execute(self):
        dt, wl, inp, probe = self.inp.dt, self.wl, self.inp, self.probe
        step_dist = 0.12 * math.pi * inp.instances[0].turn_radius

        # -- plan, track, roll out ---------------------------------------
        plan_s, roll_s, slow, lengths, flown = [], [], [], [], []
        pool, demos = [], []
        pc_s, pc_adj = 0.0, 0.0

        def rollout_act(obs):
            return dt.learn.act(inp.fresh, obs.common, use_privileged=False)

        first = len(probe.marks)
        probe.mark()
        for x in inp.instances:
            t0 = time.perf_counter()
            path = self._op("plan", x.seed, lambda: dt.expert.plan(x),
                            dt.expert.SensingGap)
            t1 = time.perf_counter()
            demo = None
            if path is not None:
                check_path(x, path, step_dist)
                demo = self._op("collect", x.seed,
                                lambda: dt.demos.collect(x, path),
                                dt.demos.TrackingFailure)
                t2 = time.perf_counter()
                self._op("rollout", x.seed, lambda: inp.ev.run_episode(
                    dt.DtspnEnv(x, mode="eval"), rollout_act))
                t3 = time.perf_counter()
            probe.mark()
            f = probe.last_slowdown()
            if path is None:
                pc_s += t1 - t0
                pc_adj += (t1 - t0) / f
                continue
            plan_s.append(t1 - t0)
            roll_s.append(t3 - t2)
            slow.append(f)
            pc_s += t2 - t0
            pc_adj += (t2 - t0) / f
            lengths.append(path.total_length)
            if demo is not None:
                demos.append(demo)
                pool.append((x, path))
                flown.append(len(demo) * dt.EnvConfig().dt)
        raw, adj = zip(*probe.stretches(first))
        self.walls["plan_collect_rollout"] = sum(raw)
        self.adjusted["plan_collect_rollout"] = sum(adj)
        if len(demos) < 2:
            raise CheckFailed(f"only {len(demos)} demos accepted; training "
                              f"needs at least 2")

        plan_ms = [1e3 * t / f for t, f in zip(plan_s, slow)]
        roll_ms = [1e3 * t / f for t, f in zip(roll_s, slow)]
        self.dists = {"plan_ms": distribution(plan_ms),
                      "rollout_ms": distribution(roll_ms)}
        self.e2e["plan_ms_p50"] = (self.dists["plan_ms"]["median"], "ms")
        self.e2e["rollout_ms_p50"] = (self.dists["rollout_ms"]["median"], "ms")
        self.e2e["demos_per_s"] = (len(demos) / pc_adj, "1/s")
        self.raw.update(plan_ms_p50=1e3 * statistics.median(plan_s),
                        rollout_ms_p50=1e3 * statistics.median(roll_s),
                        demos_per_s=len(demos) / pc_s)
        self.info["probe_slowdown_p50"] = statistics.median(slow)
        self.e2e["tour_length_m"] = (float(np.mean(lengths)), "m")
        self.e2e["flown_s_mean"] = (float(np.mean(flown)), "s")
        self.outputs["tour_lengths"] = [repr(v) for v in lengths]

        # -- dataset round trip and replay -------------------------------
        dataset = dt.DemoDataset(demos, meta=dt.demos.make_meta(
            inp.instances[0]))
        self.dataset_bytes = self._round_trip(dataset)
        for d in dataset[:wl.replays]:
            replayed = dt.demos.replay_rewards(d, dataset.meta)
            if replayed.tobytes() != d.rewards.tobytes():
                raise CheckFailed(f"demo {d.seed}: replayed rewards differ")

        # -- training ----------------------------------------------------
        n_tr = sum(len(d) for d in dataset)
        bundle = inp.bundle
        cfg = dt.TrainConfig(seed=self.seed,
                             bc_epochs=wl.bc_epochs // TRAIN_CALLS)
        _, bc_m = self._stage("bc", lambda: dt.learn.bc_pretrain(
            dataset, bundle, cfg), calls=TRAIN_CALLS, batch=True)
        self._stage("critic", lambda: dt.learn.critic_init(
            dataset, bundle, cfg, epochs=wl.critic_epochs), batch=True)

        cycle = itertools.cycle(pool)

        def factory():
            # probe between episodes (not when tracing, where the probe
            # would land inside the ppo_finetune span)
            if (not self.traced and time.perf_counter() - probe.marks[-1][1]
                    >= PPO_PROBE_EVERY_S):
                probe.mark()
            return dt.DtspnEnv(*next(cycle), mode="train")

        pcfg = dt.TrainConfig(seed=self.seed,
                              steps_budget=self.sizes.ppo_steps,
                              rollout_steps=self.sizes.rollout_steps)
        _, curve = self._stage("ppo", lambda: dt.learn.ppo_finetune(
            factory, bundle, pcfg))
        ppo_steps = len(curve) * pcfg.rollout_steps
        # nan marks a batch in which no episode ended (ppo_finetune's
        # documented curve entry); an infinite entry is wrong
        if any(math.isinf(v) for v in curve) or not bundle.finite():
            raise CheckFailed(f"PPO curve or parameters not finite: {curve}")
        _, dist_m = self._stage("distill", lambda: dt.learn.distill_adaptation(
            dataset, bundle, cfg, epochs=wl.distill_epochs // TRAIN_CALLS),
            calls=TRAIN_CALLS, batch=True)
        ev, _ = self._stage("evaluate", lambda: inp.ev.evaluate(
            bundle, inp.heldout))
        if not bundle.finite():
            raise CheckFailed("trained parameters not finite")

        self._rate("bc_samples_per_s", n_tr * wl.bc_epochs, "bc")
        self._rate("ppo_steps_per_s", ppo_steps, "ppo")
        self._rate("distill_samples_per_s", n_tr * wl.distill_epochs,
                   "distill")
        self.e2e["policy_sensing_rate"] = (float(ev.sensing_rate), "fraction")
        self.outputs["params_sha256"] = params_digest(bundle)
        self.outputs["bc_val_acc"] = repr(bc_m["val_acc"][-1])
        self.outputs["sensing_rate"] = repr(ev.sensing_rate)
        self.info.update(
            bc_val_acc=float(bc_m["val_acc"][-1]),
            transitions=n_tr, demos=len(demos), ppo_steps=ppo_steps,
            ppo_curve=[round(v, 3) for v in curve],
            distill_action_agreement=dist_m["action_agreement"],
            gate9_ratio=(self.dists["plan_ms"]["median"] /
                         self.dists["rollout_ms"]["median"]),
            bc_s_per_epoch=self.walls["bc"] / wl.bc_epochs,
            distill_s_per_epoch=self.walls["distill"] / wl.distill_epochs,
            s_per_demo=pc_s / len(demos))

    def _round_trip(self, dataset) -> int:
        dt = self.inp.dt
        name = f"demos-{self.wl.name}-{self.seed}-{os.getpid()}.bin"
        path = os.path.join(self.out_dir, name)
        again = path + ".again"
        try:
            dt.demos.save_dataset(dataset, path)
            loaded = dt.demos.load_dataset(path)
            dt.demos.save_dataset(loaded, again)
            with open(path, "rb") as f, open(again, "rb") as g:
                raw, raw_again = f.read(), g.read()
        finally:
            for p in (path, again):
                if os.path.exists(p):
                    os.remove(p)
        if (loaded.meta != dataset.meta or len(loaded) != len(dataset) or
                not all(map(_same_demo, loaded, dataset)) or raw != raw_again):
            raise CheckFailed("save_dataset -> load_dataset is not bit-exact")
        self.outputs["demo_sha256"] = hashlib.sha256(raw).hexdigest()
        return len(raw)


def layer_metrics(tracer, run: Run):
    """Per-layer metrics from the traced run's spans.  Planner figures are
    per plan() call; the others are per call of the named function unless
    the unit says otherwise."""
    s = tracer.summary()

    def get(name):
        return s.get(name, (0, 0, 0, 0))

    plans = max(get("expert.plan")[0], 1)

    def per_plan(name, which=1):
        return get(name)[which] / plans / 1e6

    def per_call(name, which=1, scale=1e3):
        calls, *rest = get(name)
        return rest[which - 1] / calls / scale if calls else 0.0

    def mean_rows(name):
        calls, _, _, rows = get(name)
        return rows / calls if calls else 0.0

    _, _, _, dur, _ = tracer.arrays()
    names = np.asarray(tracer.names)
    in_ppo = tracer.under("ppo.ppo_finetune")
    update = in_ppo & np.isin(names, ("nets.forward_cached.batch",
                                      "nets.backward", "nets.adam_step"))
    ppo_total = get("ppo.ppo_finetune")[1] / 1e9
    update_s = float(dur[update].sum()) / 1e9
    wl = run.wl
    return {
        "dubins.length_matrix.ms": (per_plan("dubins.length_matrix"), "ms"),
        "dubins.length_matrix.pairs": (
            get("dubins.length_matrix")[3] / plans, "count"),
        "expert.build_gtsp.self_ms": (per_plan("expert.build_gtsp", 2), "ms"),
        "expert.noon_bean.ms": (per_plan("expert.noon_bean"), "ms"),
        "expert.solve_atsp.ms": (per_plan("expert.solve_atsp"), "ms"),
        "expert.decode_tour.ms": (per_plan("expert.decode_tour"), "ms"),
        "expert.stitch.ms": (per_plan("expert.stitch"), "ms"),
        "expert.plan.ms": (per_plan("expert.plan"), "ms"),
        "expert.plan.self_ms": (per_plan("expert.plan", 2), "ms"),
        "env.step.us": (per_call("env.step"), "us"),
        "env.step.self_us": (per_call("env.step", 2), "us"),
        "env.advance.us": (per_call("env.advance"), "us"),
        "env.encode_common.us": (per_call("env.encode_common"), "us"),
        "env.encode_privileged.us": (per_call("env.encode_privileged"), "us"),
        "expert.ExpertPath.waypoint_array.us": (
            per_call("expert.ExpertPath.waypoint_array"), "us"),
        "env.expert_distance.us": (per_call("env.expert_distance"), "us"),
        "env.reset.us": (per_call("env.reset"), "us"),
        "demos.collect.ms": (per_call("demos.collect", scale=1e6), "ms"),
        "demos.greedy_action.us": (per_call("demos.greedy_action"), "us"),
        "demos.save_dataset.ms": (
            per_call("demos.save_dataset", scale=1e6), "ms"),
        "demos.load_dataset.ms": (
            per_call("demos.load_dataset", scale=1e6), "ms"),
        "demos.dataset.bytes": (run.dataset_bytes, "bytes"),
        "nets.forward_cached.b1.us": (
            per_call("nets.forward_cached.b1"), "us"),
        "nets.act.us": (per_call("nets.act"), "us"),
        "nets.forward_cached.batch.us": (
            per_call("nets.forward_cached.batch"), "us"),
        "nets.forward_cached.batch.rows": (
            mean_rows("nets.forward_cached.batch"), "count"),
        "nets.backward.us": (per_call("nets.backward"), "us"),
        "nets.backward.rows": (mean_rows("nets.backward"), "count"),
        "nets.adam_step.us": (per_call("nets.adam_step"), "us"),
        "ppo.rollout_s": (ppo_total - update_s, "s"),
        "ppo.update_s": (update_s, "s"),
        "ppo.rollout_share": (
            (ppo_total - update_s) / ppo_total if ppo_total else 0.0,
            "fraction"),
        "bc.epoch_s": (get("bc.bc_pretrain")[1] / 1e9 / wl.bc_epochs, "s"),
        "bc.val_acc": (run.info["bc_val_acc"], "fraction"),
        "bc.critic_epoch_s": (
            get("bc.critic_init")[1] / 1e9 / wl.critic_epochs, "s"),
        "distill.epoch_s": (
            get("distill.distill_adaptation")[1] / 1e9 / wl.distill_epochs,
            "s"),
        "evaluate.run_episode.ms": (
            per_call("evaluate.run_episode", scale=1e6), "ms"),
        "trace.spans": (len(tracer.names), "count"),
    }
