"""In-memory span tracer for the lcstates benchmark.

The tracer wraps, from outside the package, the functions that one
lcstates module calls in another (plus a few module-internal kernels of
the search).  Every layer is looked up by name when tracing starts; a
layer whose function no longer exists is reported as absent instead of
failing the run, so the benchmark survives refactors that delete or
rename kernels.

A span is (label, start, end, parent, operation, shape tag).  Spans are
kept in parallel lists while the benchmark runs and written out once at
the end.  A span's self time is its duration minus the durations of its
direct children.
"""

import functools
import gzip
import importlib
import json
import os
import time

# (label, module, attribute path or tuple of attribute paths).  A dotted
# path names a method, patched on its class; a plain name is re-bound in
# every lcstates module that imported the same function object.
LAYERS = (
    ("reach.search", "reach", "lc_distance_search"),
    ("reach.objective", "reach", "_objective"),
    ("reach.gradient", "reach", "_party_gradient"),
    ("reach.precursor", "reach", "precursor_optimal_for_channels"),
    ("reach.retract", "reach", "_polar_retract"),
    ("reach.obstruct", "reach", "lccc_obstruction_check"),
    ("reach.try_basis", "reach", "_try_basis"),
    ("channels.apply", "channels", "_apply_product_channel_matrix"),
    ("channels.adjoint", "channels", "apply_adjoint_product_channel"),
    ("channels.init", "channels", "LocalChannel.__post_init__"),
    ("states.eigh", "states", "deterministic_eigh"),
    ("states.density_init", "states", "DensityMatrix.__post_init__"),
    ("states.distance", "states", "distance"),
    ("slocc.classify", "slocc", "classify_three_qubit"),
    ("locc.plan", "locc", "build_synthesis_plan"),
    ("locc.sample", "locc", "simulate_synthesis"),
    ("serialize.load", "serialize", ("load_state", "load_channel")),
    ("serialize.dump", "serialize", ("save_state", "save_channel",
                                     "plan_to_dict", "certificate_to_dict",
                                     "search_result_to_dict")),
    ("cli.run", "cli", "run_command"),
)

PACKAGE_MODULES = ("states", "channels", "slocc", "locc", "reach",
                   "serialize", "cli")

COMPLEX_BYTES = 16


# ---------------------------------------------------------------------------
# computed operation counts, derived from array shapes only


def apply_cost(kraus_shapes, dims, skip=None):
    """(flops, bytes) of one product-channel application, computed.

    Per party k the kernel makes two tensor contractions over a D x D
    operator (D = prod dims): Kraus stack into the row index, then its
    conjugate into the column index.  Each costs e_k d_k D^2 complex
    multiply-adds (8 real flops each) and reads its input and writes its
    output (D^2 and e_k D^2 complex entries, 16 bytes each).
    """
    big = 1
    for d in dims:
        big *= d
    flops = nbytes = 0
    for k, (e, d, _) in enumerate(kraus_shapes):
        if k == skip:
            continue
        flops += 2 * 8 * e * d * big * big
        nbytes += COMPLEX_BYTES * big * big * (2 + 2 * e)
    return flops, nbytes


def gradient_cost(kraus_shapes, dims, k):
    """(flops, bytes) of one party gradient in the seed's formulation.

    The full forward map (the other parties, then party k), then per Kraus
    operator of party k one embedded D x D operator and two D x D complex
    matrix products (2 D^3 multiply-adds); traffic counts writing the
    embedding, the operands and results of both products and the read of
    the partial trace.
    """
    flops, nbytes = apply_cost(kraus_shapes, dims)
    big = 1
    for d in dims:
        big *= d
    e = kraus_shapes[k][0]
    flops += e * 2 * 8 * big ** 3
    nbytes += e * COMPLEX_BYTES * big * big * 8
    return flops, nbytes


def _kraus_shapes(channels):
    return [tuple(c.kraus.shape) for c in channels]


def _apply_hook(tracer, idx, args, kwargs):
    skip = kwargs.get("skip", args[3] if len(args) > 3 else None)
    tag = tracer.tags[idx]
    if skip is None and ("apply", tag) not in tracer.computed:
        tracer.computed[("apply", tag)] = apply_cost(_kraus_shapes(args[0]),
                                                     tuple(args[2]))


def _gradient_hook(tracer, idx, args, kwargs):
    tag = tracer.tags[idx]
    if ("gradient", tag) not in tracer.computed:
        tracer.computed[("gradient", tag)] = gradient_cost(
            _kraus_shapes(args[0]), tuple(args[3]), args[4])


def _sample_hook(tracer, idx, args, kwargs):
    tracer.counters["locc.shots"] += int(kwargs.get("n_samples", args[1]))


def _save_hook(tracer, idx, args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
        tracer.counters["serialize.file_bytes"] += os.path.getsize(path)


HOOKS = {
    "channels.apply": _apply_hook,
    "reach.gradient": _gradient_hook,
    "locc.sample": _sample_hook,
}
SAVE_FUNCTIONS = ("save_state", "save_channel")


class Tracer:
    """Records spans around the wrapped layers while installed."""

    def __init__(self):
        self.labels, self.starts, self.ends = [], [], []
        self.parents, self.ops, self.tags = [], [], []
        self._stack = []
        self.op = -1
        self.tag = ""
        self.computed = {}
        self.counters = {"locc.shots": 0, "serialize.file_bytes": 0}
        self.absent = []
        self.hook_errors = set()
        self._patches = None

    # -- span recording ---------------------------------------------------

    def _open(self, label):
        idx = len(self.labels)
        self.labels.append(label)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.tags.append(self.tag)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def span(self, label):
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, label)

    def wrap(self, label, fn, hook=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(label)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, clock())
                if hook is not None:
                    try:
                        hook(tracer, idx, args, kwargs)
                    except Exception:   # a changed signature must not break the program
                        tracer.hook_errors.add(label)
        return traced

    # -- installing wrappers by name --------------------------------------

    def install(self):
        """Wrap every layer that exists; remember absent ones."""
        if self._patches is not None:
            return
        modules = {}
        for m in PACKAGE_MODULES:
            try:
                modules[m] = importlib.import_module(f"lcstates.{m}")
            except ModuleNotFoundError:
                pass
        # the package namespace re-exports the public functions
        namespaces = list(modules.values()) + [importlib.import_module("lcstates")]
        patches, absent = [], []
        for label, mod_name, paths in LAYERS:
            if isinstance(paths, str):
                paths = (paths,)
            found = False
            for path in paths:
                hook = _save_hook if path in SAVE_FUNCTIONS else HOOKS.get(label)
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(modules.get(mod_name), cls_name, None)
                    fn = getattr(cls, meth, None)
                    if fn is None:
                        continue
                    found = True
                    patches.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(label, fn, hook))
                    continue
                fn = getattr(modules.get(mod_name), path, None)
                if fn is None:
                    continue
                found = True
                traced = self.wrap(label, fn, hook)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, attr, fn))
                            setattr(mod, attr, traced)
            if not found:
                absent.append(label)
        self._patches = patches
        self.absent = absent

    def uninstall(self):
        for owner, attr, original in reversed(self._patches or ()):
            setattr(owner, attr, original)
        self._patches = None

    # -- analysis ---------------------------------------------------------

    def self_times_ns(self):
        """Self time of every span: duration minus its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def outermost(self, label, tag=None):
        """Indices of spans of `label` not nested in a span of the same label."""
        out = []
        for i, lab in enumerate(self.labels):
            if lab != label or (tag is not None and self.tags[i] != tag):
                continue
            p = self.parents[i]
            if p >= 0 and self.labels[p] == label:
                continue
            out.append(i)
        return out

    def write(self, path):
        """Write all spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.labels)):
                fh.write(json.dumps([self.labels[i], self.starts[i],
                                     self.ends[i], self.parents[i],
                                     self.ops[i], self.tags[i]]))
                fh.write("\n")


class _Span:
    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        self.idx = self.tracer._open(self.label)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, time.perf_counter_ns())
        return False
