"""Span tracing of the program's layers, installed from outside the package.

Each traced function is replaced at every attribute that binds it in a
loaded ``larspath`` module, because callers resolve the name in their own
module: ``core`` calls its imported ``cholesky_append``, ``oracles`` its own
copy, and ``linalg`` calls ``kernels.givens_downdate`` through the module.
A span records name, start, end, parent and one optional count; spans stay
in memory and are written out when the run ends.  Targets called hundreds
of thousands of times a round (the Gram cache's column lookup on wide
designs) are only counted, without spans.  A target that does not exist in
the program being measured is skipped, and its metrics read 0.
"""

import sys
from time import perf_counter_ns


def _nnls_projected(args, kwargs, out):
    weights = args[1] if len(args) > 1 else kwargs["target_weights"]
    return len(weights) - len(out[1])


def _column_miss(args, kwargs):
    cache, j = args[0], args[1]
    cols = getattr(cache, "_cols", None)
    return int(cols is not None and j not in cols)


# span name -> (module, attribute path, count after the call, count before it)
COUNT_ONLY = {"core.gram.column"}
TARGETS = {
    "core.fit_path": ("core", "fit_path", lambda a, k, out: out.n_steps, None),
    "core.interpolate": ("core", "interpolate", None, None),
    "core.gram.stack": ("core", "_GramCache.stack", None, None),
    "core.gram.column": ("core", "_GramCache.column", None, _column_miss),
    "linalg.cholesky_append": ("linalg", "cholesky_append", None, None),
    "linalg.cholesky_drop": ("linalg", "cholesky_drop", None, None),
    "linalg.refactor": ("linalg", "CholeskyFactor.from_gram", None, None),
    "linalg.solve_gram": ("linalg", "solve_gram", None, None),
    "linalg.nnls_inner_loop": ("linalg", "nnls_inner_loop", _nnls_projected, None),
    "kernels.givens_downdate": ("kernels", "givens_downdate", None, None),
    "oracles.forward_selection": ("oracles", "forward_selection", None, None),
    "preprocess.standardize": ("preprocess", "standardize", None, None),
    "preprocess.quadratic_expand": ("preprocess", "quadratic_expand", None, None),
    "model_select.bootstrap_df": ("model_select", "bootstrap_df", None, None),
    "model_select.lasso_df_by_support": ("model_select", "lasso_df_by_support", None, None),
    "model_select.run_simulation_study": ("model_select", "run_simulation_study", None, None),
    "dataio.read_csv": ("dataio", "read_csv", None, None),
    "dataio.write_path_csv": ("dataio", "write_path_csv", None, None),
    "cli.cli_main": ("cli", "cli_main", None, None),
    "datasets.load_diabetes": ("datasets", "load_diabetes", None, None),
}


class Tracer:
    """Span recorder with parallel lists, cheap enough to wrap per-move calls."""

    def __init__(self):
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.count = []
        self._stack = []
        self._undo = []
        self.counters = {}   # count-only targets: name -> [calls, count]

    def open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.count.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self._stack.pop()
        self.end[idx] = perf_counter_ns()

    def wrap(self, fn, name, after=None, before=None):
        tracer = self
        if name in COUNT_ONLY:
            row = self.counters.setdefault(name, [0, 0])

            def counted(*args, **kwargs):
                row[0] += 1
                if before is not None:
                    row[1] += before(args, kwargs)
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            if before is not None:
                tracer.count[idx] = before(args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.count[idx] = after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target at each binding in the loaded larspath modules."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "larspath" or key.startswith("larspath."))]
        for name, (mod_name, attr, after, before) in TARGETS.items():
            home = sys.modules.get(f"larspath.{mod_name}")
            if home is None:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or leaf not in vars(owner):
                continue
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, after, before))
                self._set(owner, leaf, raw, wrapped)
                continue
            wrapped = self.wrap(raw, name, after, before)
            if owner_name:
                self._set(owner, leaf, raw, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, raw, wrapped)

    def _set(self, owner, key, old, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,count\n")
            for i, name in enumerate(self.name):
                fh.write(f"{i},{self.parent[i]},{name},{self.start[i]},"
                         f"{self.end[i]},{self.count[i]}\n")

    def totals(self, root):
        """Per-name calls, busy and self time (ms) and counts under one span.

        ``under`` counts, per name, the calls whose parent span has a given
        name, e.g. the refactorizations made inside ``cholesky_drop``.
        """
        members = [root]
        child_ns = {}
        seen = {root}
        for i in range(root + 1, len(self.name)):
            p = self.parent[i]
            if p not in seen:
                break
            seen.add(i)
            members.append(i)
            child_ns[p] = child_ns.get(p, 0) + self.end[i] - self.start[i]
        out = {}
        for i in members[1:]:
            d = self.end[i] - self.start[i]
            row = out.setdefault(self.name[i], {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0,
                                                "count": 0, "under": {}})
            row["calls"] += 1
            row["busy_ms"] += d / 1e6
            row["self_ms"] += (d - child_ns.get(i, 0)) / 1e6
            row["count"] += self.count[i]
            parent = self.name[self.parent[i]]
            row["under"][parent] = row["under"].get(parent, 0) + 1
        return out
