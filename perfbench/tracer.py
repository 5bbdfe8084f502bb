"""Span recorder that wraps dtspn's public functions from outside the package.

Each wrapper is installed at the name its callers look up (a module global
such as ``dtspn.expert.length_matrix`` or a class attribute such as
``DtspnEnv.step``), so calls made inside the package are timed too.  Spans
keep name, start, end, parent and input rows in memory; ``write`` dumps them
at the end of a run.  A target whose module or attribute no longer exists is
listed in ``missing`` instead of raising.
"""

import functools
import gzip
import importlib
import json
import time

import numpy as np

_PLAN = "expert.plan"
_FWD = "nets.forward_cached"

# (span name, module, attribute): every place a caller looks the name up
TARGETS = [
    ("dubins.length_matrix", "dtspn.expert", "length_matrix"),
    ("expert.build_gtsp", "dtspn.expert", "build_gtsp"),
    ("expert.noon_bean", "dtspn.expert", "noon_bean"),
    ("expert.solve_atsp", "dtspn.expert", "solve_atsp"),
    ("expert.decode_tour", "dtspn.expert", "decode_tour"),
    ("expert.stitch", "dtspn.expert", "shortest_path"),
    ("expert.stitch", "dtspn.expert", "sample_path"),
    (_PLAN, "dtspn.expert", "plan"),
    (_PLAN, "dtspn.demos", "plan"),
    (_PLAN, "dtspn.evaluate", "plan"),
    (_PLAN, "dtspn", "plan"),
    ("expert.ExpertPath.waypoint_array", "dtspn.expert",
     "ExpertPath.waypoint_array"),
    ("env.reset", "dtspn.env", "DtspnEnv.reset"),
    ("env.step", "dtspn.env", "DtspnEnv.step"),
    ("env.expert_distance", "dtspn.env", "DtspnEnv.expert_distance"),
    ("env.advance", "dtspn.env", "advance"),
    ("env.encode_common", "dtspn.env", "encode_common"),
    ("env.encode_privileged", "dtspn.env", "encode_privileged"),
    ("demos.collect", "dtspn.demos", "collect"),
    ("demos.collect", "dtspn", "collect"),
    ("demos.greedy_action", "dtspn.demos", "greedy_action"),
    ("demos.greedy_action", "dtspn.evaluate", "greedy_action"),
    ("demos.save_dataset", "dtspn.demos", "save_dataset"),
    ("demos.load_dataset", "dtspn.demos", "load_dataset"),
    ("nets.act", "dtspn.learn.nets", "act"),
    ("nets.act", "dtspn.learn", "act"),
    ("nets.act", "dtspn.evaluate", "act"),
    ("nets.act", "dtspn", "act"),
    ("bc.bc_pretrain", "dtspn.learn.bc", "bc_pretrain"),
    ("bc.bc_pretrain", "dtspn.learn", "bc_pretrain"),
    ("bc.critic_init", "dtspn.learn.bc", "critic_init"),
    ("bc.critic_init", "dtspn.learn", "critic_init"),
    ("ppo.ppo_finetune", "dtspn.learn.ppo", "ppo_finetune"),
    ("ppo.ppo_finetune", "dtspn.learn", "ppo_finetune"),
    ("distill.distill_adaptation", "dtspn.learn.distill",
     "distill_adaptation"),
    ("distill.distill_adaptation", "dtspn.learn", "distill_adaptation"),
    ("evaluate.run_episode", "dtspn.evaluate", "run_episode"),
    ("evaluate.evaluate", "dtspn.evaluate", "evaluate"),
    ("evaluate.evaluate", "dtspn", "evaluate"),
] + [(name, mod, attr)
     for mod in ("dtspn.learn.nets", "dtspn.learn.bc", "dtspn.learn.ppo",
                 "dtspn.learn.distill", "dtspn.learn")
     for name, attr in ((_FWD, "forward_cached"),
                        ("nets.backward", "backward"),
                        ("nets.adam_step", "adam_step"))]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


# how many input rows (or pose pairs) a span carries, by span name
_ROWS = {
    _FWD: lambda a, k: _rows(_arg(a, k, 1, "x")),
    "nets.backward": lambda a, k: _rows(_arg(a, k, 2, "upstream")),
    "dubins.length_matrix": lambda a, k: (len(_arg(a, k, 0, "from_poses")) *
                                          len(_arg(a, k, 1, "to_poses"))),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names = []         # span name per span
        self.start = []         # perf_counter_ns at entry
        self.end = []           # perf_counter_ns at exit
        self.parent = []        # index of the enclosing span, -1 at top level
        self.rows = []          # input rows (or pairs) where the name has them
        self.missing = []
        self._open = [-1]
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        rows_of = _ROWS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = rows_of(args, kwargs) if rows_of is not None else 0
            span_name = name
            if name == _FWD:
                span_name = name + (".b1" if rows == 1 else ".batch")
            i = len(self.names)
            self.names.append(span_name)
            self.parent.append(self._open[-1])
            self.rows.append(rows)
            self.end.append(0)
            self._open.append(i)
            self.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter_ns()
                self._open.pop()

        return traced

    def install(self):
        """Wrap every target that exists; record the rest as missing."""
        for name, mod_name, attr in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))
        return self

    def uninstall(self):
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        """Columns as numpy arrays plus per-span duration and self time
        (duration minus the time its direct children cover), in ns."""
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return start, end, parent, dur, dur - child

    def under(self, root_name):
        """Mask of spans that have a span called root_name as an ancestor."""
        inside = np.zeros(len(self.names), dtype=bool)
        for i, p in enumerate(self.parent):
            # parents open before their children, so p < i is already set
            inside[i] = p >= 0 and (inside[p] or self.names[p] == root_name)
        return inside

    def summary(self):
        """{span name: (calls, total ns, total self ns, total rows)}."""
        _, _, _, dur, self_ns = self.arrays()
        out = {}
        for i, name in enumerate(self.names):
            c, t, s, r = out.get(name, (0, 0, 0, 0))
            out[name] = (c + 1, t + int(dur[i]), s + int(self_ns[i]),
                         r + self.rows[i])
        return out

    def write(self, path):
        """Dump every span as gzipped JSON columns."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        doc = {"names": table,
               "name": [index[n] for n in self.names],
               "start_ns": self.start, "end_ns": self.end,
               "parent": self.parent, "rows": self.rows,
               "missing": self.missing}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
