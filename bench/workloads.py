"""The benchmark's three closed-loop workloads.

Each workload is driven by one caller that starts an operation only after
the previous one returned.  Work is split into passes; pass i's inputs
derive from (seed, i), so a run is reproducible from its seed while the
number of passes adapts to the run length.

* search_qubits - ``lc_distance_search`` on the positive control (noisy
  GHZ, criterion 5) and the negative control (``z_mixture(0.5)``,
  criterion 6).  The (2,2,2) shape is where the acceptance suite spends
  its time and where per-call Python overhead dominates.
* search_wide - the same search on noisy GHZ targets at (2,2,2,2) and
  (3,3,3), where each kernel call costs 2-3x more; separates arithmetic
  changes from per-call-overhead changes.
* cli_batch - in-process ``cli.run_command`` over files on disk:
  synthesize, obstruct, classify, tangle, noise-apply and malformed-input
  probes.  It never calls the search, so search changes should not move
  it.

Pass 0 of each search workload uses the acceptance suite's pinned master
seed, so the residuals it reports repeat bit for bit in every run.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import lcstates as lc
from lcstates import cli, serialize

# size of every timed search call.  Many short restarts rather than a few
# long ones: a restart's cost varies with its step-size history, and six
# of them per call average that out (per-call spread ~3% at fixed size).
# Pass 0 at the pinned seed reaches ~3.5e-3 on the positive control.
SEARCH_RESTARTS = 6
SEARCH_MAX_ITERS = 40
WARMUP_ITERS = 2

SYNTH_SAMPLES = 10 ** 6
SYNTH_DIMS = (2, 3, 4)
Z_WEIGHTS = (0.1, 0.3, 0.5, 0.7, 0.9)
# distinct input sets of cli_batch; pass i uses set i mod CLI_SETS
CLI_SETS = 8

SYNTH_TD_GATE = 0.02       # criterion 4's bound at N >= 1e5
NEG_RESIDUAL_FLOOR = 0.01  # criterion 6's floor
NEG_OVER_POS = 10.0        # "well above" at this search size
TD_RECOMPUTE_TOL = 1e-9
EXIT_INVALID = 2


@dataclass
class Op:
    """One timed operation: `run` is timed, `check` returns problems."""

    kind: str
    tag: str
    run: object
    check: object
    probe: bool = False   # malformed input whose correct answer is exit 2


@dataclass
class RestartStats:
    iters: list = field(default_factory=list)
    at_max: int = 0
    hits: int = 0


def shape_tag(dims):
    return "".join(str(d) for d in dims)


def trace_distance(a, b):
    """Independent recomputation: half the sum of |eigenvalues| of a - b."""
    diff = np.asarray(a) - np.asarray(b)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))


def restart_iterations(trace_len, n_parties):
    """True iteration count of a restart from ``per_restart_log``.

    The log's third field is len(trace): the initial objective plus, per
    iteration, one precursor entry and one entry per party, so a restart
    that completes k iterations logs 1 + k (n + 1).  A restart that stops
    on step underflow part-way through its last iteration logs 2..n+1
    entries for it, which the ceiling counts as one more iteration.
    """
    return math.ceil((trace_len - 1) / (n_parties + 1))


def noisy_ghz(n, d):
    """Criterion 5's target generalised: dephasing and depolarizing on the
    first two parties of GHZ_n,d, identity on the rest."""
    chans = [lc.dephasing_channel(d, 0.3), lc.depolarizing_channel(d, 0.2)]
    chans += [lc.identity_channel(d)] * (n - 2)
    return lc.apply_product_channel(chans, lc.ghz_state(n, d).density())


def random_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(dims, rng):
    u = np.eye(1)
    for d in dims:
        u = np.kron(u, random_unitary(d, rng))
    return u


def random_density(dims, rng):
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return lc.DensityMatrix(lc.SystemShape(tuple(dims)), m / np.trace(m).real,
                            symmetrize=True)


def _derived_seed(*words):
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


class _Workload:
    tracer = None        # set by the runner on traced passes
    ref_each_op = False  # time the speed reference after every operation

    def span(self, label):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(label)


# ---------------------------------------------------------------------------
# search workloads


class SearchWorkload(_Workload):
    """Alternates one search per target in every pass."""

    # a search call lasts about a second, long enough for the machine's
    # speed to change between the calls of one pass
    ref_each_op = True

    def __init__(self, name, restarts=SEARCH_RESTARTS,
                 max_iters=SEARCH_MAX_ITERS):
        self.name = name
        self.restarts = restarts
        self.max_iters = max_iters
        self.pinned = {}          # target label -> trace distance at pass 0
        self.stats = {}           # shape tag -> RestartStats

    def prepare(self, workdir, seed, root):
        self.seed = seed
        baseline = json.loads((root / "tests" / "data"
                               / "negative_control_baseline.json").read_text())
        self.pinned_seed = int(baseline["master_seed"])
        if self.name == "search_qubits":
            self.targets = [("pos", noisy_ghz(3, 2), None),
                            ("neg", lc.z_mixture(0.5),
                             tuple(baseline["env_dims"]))]
        else:
            self.targets = [("2222", noisy_ghz(4, 2), None),
                            ("333", noisy_ghz(3, 3), None)]

    def warm_up(self):
        for _, target, env in self.targets:
            lc.lc_distance_search(target, env_dims=env, restarts=2,
                                  max_iters=WARMUP_ITERS, master_seed=0)

    def ops(self, i):
        ops = []
        for j, (label, target, env) in enumerate(self.targets):
            ms = self.pinned_seed if i == 0 else _derived_seed(self.seed, i, j)
            ops.append(Op("search", shape_tag(target.shape.local_dims),
                          self._runner(target, env, ms),
                          self._checker(label, target, pinned=(i == 0))))
        return ops

    def _runner(self, target, env, master_seed):
        def run():
            return lc.lc_distance_search(target, env_dims=env,
                                         restarts=self.restarts,
                                         max_iters=self.max_iters,
                                         master_seed=master_seed)
        return run

    def _checker(self, label, target, pinned):
        def check(result):
            problems = []
            td = trace_distance(result.best.output().entries, target.entries)
            if not abs(td - result.trace_distance) <= TD_RECOMPUTE_TOL:
                problems.append(f"{label}: reported trace distance "
                                f"{result.trace_distance!r}, recomputed {td!r}")
            self._record_restarts(target, result)
            if pinned:
                self.pinned[label] = result.trace_distance
                if label == "neg":
                    problems += self._control_gap()
            return problems
        return check

    def _control_gap(self):
        pos, neg = self.pinned.get("pos"), self.pinned["neg"]
        problems = []
        if not neg >= NEG_RESIDUAL_FLOOR:
            problems.append(f"negative residual {neg!r} below {NEG_RESIDUAL_FLOOR}")
        if pos is None or not neg >= NEG_OVER_POS * pos:
            problems.append(f"negative residual {neg!r} not {NEG_OVER_POS:g}x "
                            f"the positive one {pos!r}")
        return problems

    def _record_restarts(self, target, result):
        n = target.shape.n_parties
        st = self.stats.setdefault(shape_tag(target.shape.local_dims),
                                   RestartStats())
        finals = [float(obj) for _, obj, _ in result.per_restart_log]
        best = min(finals)
        for _, obj, length in result.per_restart_log:
            iters = restart_iterations(int(length), n)
            st.iters.append(iters)
            st.at_max += iters >= self.max_iters
            st.hits += obj <= max(2 * best, best + 1e-12)

    def residual(self):
        """Best trace distance on the reachable targets of the pinned pass;
        for two reachable targets the worse of the two."""
        if self.name == "search_qubits":
            return self.pinned["pos"]
        return max(self.pinned.values())

    def named_metrics(self):
        if self.name == "search_qubits":
            return {"pos_residual_log10": (math.log10(self.pinned["pos"]), "log10"),
                    "neg_residual": (self.pinned["neg"], "1")}
        return {f"residual_{k}": (v, "1") for k, v in self.pinned.items()}


# ---------------------------------------------------------------------------
# CLI batch


class CliBatch(_Workload):
    """One pass runs every command kind once on one input set."""

    name = "cli_batch"

    def __init__(self, sets=CLI_SETS, samples=SYNTH_SAMPLES):
        self.n_sets = sets
        self.samples = samples
        self.synth_td = {}       # (set, d) -> trace distance of first run
        self.cert_total = 0
        self.cert_miss = 0

    def prepare(self, workdir, seed, root):
        workdir.mkdir(parents=True, exist_ok=True)
        self.sets = [self._make_set(workdir / f"set{s:02d}", seed, s)
                     for s in range(self.n_sets)]

    def _make_set(self, d_set, seed, s):
        d_set.mkdir()
        rng = np.random.default_rng(np.random.SeedSequence([seed, s]))
        st = {"dir": d_set, "id": s}
        for d in SYNTH_DIMS:
            path = d_set / f"bip{d}.json"
            serialize.save_state(random_density((d, d), rng), path)
            st[f"bip{d}"] = str(path)
            st[f"synth_seed{d}"] = int(rng.integers(2 ** 31))
        for p in Z_WEIGHTS:
            u = random_local_unitary((2, 2, 2), rng)
            m = u @ lc.z_mixture(p).entries @ u.conj().T
            path = d_set / f"z{p}.json"
            serialize.save_state(lc.DensityMatrix(lc.SystemShape((2, 2, 2)), m,
                                                  symmetrize=True), path)
            st[f"z{p}"] = str(path)
        for kind, base in (("ghz", lc.ghz_state()), ("w", lc.w_state())):
            u = random_local_unitary((2, 2, 2), rng)
            path = d_set / f"{kind}.json"
            serialize.save_state(lc.PureState(base.shape, u @ base.amplitudes), path)
            st[kind] = str(path)
        for d in (2, 3):
            rho = random_density((d, d, d), rng)
            chans = [lc.random_local_channel(d, d, int(rng.integers(2 ** 31)))
                     for _ in range(3)]
            path = d_set / f"noise{d}.json"
            serialize.save_state(rho, path)
            names = []
            for k, c in enumerate(chans):
                cpath = d_set / f"chan{d}_{k}.json"
                serialize.save_channel(c, cpath)
                names.append(str(cpath))
            st[f"noise{d}"] = str(path)
            st[f"chans{d}"] = ",".join(names)
            st[f"noise_ref{d}"] = _kraus_reference(chans, rho.entries)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        data = [[float(z.real), float(z.imag)] for z in amps]
        data[int(rng.integers(8))][0] = float("nan")
        path = d_set / "nan.json"
        path.write_text(json.dumps({"shape": [2, 2, 2], "kind": "pure",
                                    "data": data}))
        st["nan"] = str(path)
        path = d_set / "bad_config.json"
        path.write_text(json.dumps({"restarts": "3"}))
        st["bad_config"] = str(path)
        return st

    def warm_up(self):
        for op in self.ops(0):
            try:
                op.run()
            except Exception:   # the malformed-input probes may raise
                pass

    def ops(self, i):
        st = self.sets[i % len(self.sets)]
        out = st["dir"]
        ops = []

        def cli_op(kind, tag, argv, check, probe=False):
            report_path = out / f"report_{len(ops)}.json"
            ops.append(Op(kind, tag, lambda: self._cli(argv, report_path),
                          check, probe))

        synth = {d: ["synthesize", "--target", st[f"bip{d}"], "--samples",
                     str(self.samples), "--seed", str(st[f"synth_seed{d}"])]
                 for d in SYNTH_DIMS}
        z = {p: ["obstruct", "--in", st[f"z{p}"]] for p in Z_WEIGHTS}
        # interleave the command kinds so a slow phase of the machine is
        # shared among them rather than hitting one kind
        cli_op("synthesize", "22", synth[2], self._check_synth(st, 2))
        cli_op("obstruct", "222", z[0.1], self._check_obstructed)
        cli_op("classify", "222", ["classify", "--in", st["ghz"]],
               _expect_output("class", "GHZ"))
        cli_op("noise-apply", "222", self._noise_argv(st, 2, out),
               self._check_noise(st, 2, out))
        cli_op("obstruct", "22", ["obstruct", "--in", st["bip2"]],
               _check_bipartite)
        cli_op("synthesize", "33", synth[3], self._check_synth(st, 3))
        cli_op("obstruct", "222", z[0.3], self._check_obstructed)
        cli_op("tangle", "222", ["tangle", "--in", st["ghz"]],
               _expect_tangle(1.0))
        cli_op("malformed", "222", ["classify", "--in", st["nan"]],
               _expect_invalid, probe=True)
        cli_op("obstruct", "222", z[0.5], self._check_obstructed)
        cli_op("synthesize", "44", synth[4], self._check_synth(st, 4))
        cli_op("classify", "222", ["classify", "--in", st["w"]],
               _expect_output("class", "W"))
        cli_op("obstruct", "33", ["obstruct", "--in", st["bip3"]],
               _check_bipartite)
        cli_op("noise-apply", "333", self._noise_argv(st, 3, out),
               self._check_noise(st, 3, out))
        cli_op("obstruct", "222", z[0.7], self._check_obstructed)
        cli_op("tangle", "222", ["tangle", "--in", st["w"]],
               _expect_tangle(0.0))
        cli_op("malformed", "22", ["lc-search", "--target", st["bip2"],
                                   "--config", st["bad_config"]],
               _expect_invalid, probe=True)
        cli_op("obstruct", "222", z[0.9], self._check_obstructed)
        cli_op("obstruct", "44", ["obstruct", "--in", st["bip4"]],
               _check_bipartite)
        return ops

    def _cli(self, argv, report_path):
        """One command as `lcstates` runs it: dispatch, then the JSON report
        written out (to a file here, where the executable prints it)."""
        with contextlib.redirect_stderr(io.StringIO()):
            code, report = cli.run_command(argv)
        nbytes = 0
        if report is not None:
            with self.span("cli.write"):
                text = json.dumps(report) + "\n"
                with open(report_path, "w") as fh:
                    fh.write(text)
            nbytes = len(text)
            if self.tracer is not None:
                self.tracer.counters["serialize.file_bytes"] += nbytes
        return code, report

    @staticmethod
    def _noise_argv(st, d, out):
        return ["noise-apply", "--in", st[f"noise{d}"], "--channel",
                st[f"chans{d}"], "--out", str(out / f"noisy{d}.json")]

    def _check_synth(self, st, d):
        key = (st["id"], d)

        def check(result):
            code, report = result
            if code != 0:
                return [f"synthesize d={d}: exit code {code}"]
            outputs = report["outputs"]
            td = outputs["report"]["trace_distance"]
            problems = []
            if not td <= SYNTH_TD_GATE:
                problems.append(f"synthesize d={d}: trace distance {td!r}")
            first = self.synth_td.setdefault(key, td)
            if td != first:
                problems.append(f"synthesize d={d}: trace distance {td!r} "
                                f"differs from {first!r} on the same input")
            try:
                plan_from_dict(outputs["plan"]).verify()
            except lc.InvariantError as exc:
                problems.append(f"synthesize d={d}: plan fails verify(): {exc}")
            return problems
        return check

    def _check_obstructed(self, result):
        code, report = result
        if code != 0:
            return [f"obstruct: exit code {code}"]
        out = report["outputs"]
        self.cert_total += 1
        if out["verdict"] == lc.UNKNOWN:
            self.cert_miss += 1
            return []
        if out["verdict"] != lc.NOT_LCCC:
            return [f"obstruct: verdict {out['verdict']} on a W/GHZ mixture"]
        if set(out.get("classes", ())) != {"W", "GHZ"}:
            return [f"obstruct: NotLCCC with classes {out.get('classes')}"]
        return []

    def _check_noise(self, st, d, out):
        def check(result):
            code, _ = result
            if code != 0:
                return [f"noise-apply d={d}: exit code {code}"]
            rho = serialize.load_state(out / f"noisy{d}.json")
            err = float(np.max(np.abs(rho.entries - st[f"noise_ref{d}"])))
            return [] if err <= 1e-12 else [f"noise-apply d={d}: error {err!r}"]
        return check

    def residual(self):
        """Mean synthesize trace distance over the distinct inputs run."""
        return float(np.mean(list(self.synth_td.values())))

    def cert_miss_frac(self):
        return self.cert_miss / self.cert_total if self.cert_total else 0.0

    def named_metrics(self):
        return {"cert_miss_frac": (self.cert_miss_frac(), "frac"),
                "synth_td_mean": (self.residual(), "1")}


def _kraus_reference(chans, rho):
    """Product channel by explicit Kronecker products of Kraus operators."""
    out = np.zeros_like(rho)
    for a in chans[0].kraus:
        for b in chans[1].kraus:
            for c in chans[2].kraus:
                k = np.kron(np.kron(a, b), c)
                out += k @ rho @ k.conj().T
    return out


def _decode(m):
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def plan_from_dict(doc):
    """Rebuild a SynthesisPlan from its report so its verify() can run."""
    ens = doc["ensemble"]
    ensemble = lc.Ensemble(np.asarray(ens["probabilities"], dtype=float),
                           tuple(serialize.state_from_dict(s) for s in ens["states"]))
    protocols = tuple(
        lc.ConversionProtocol(
            target=serialize.state_from_dict(p["target"]),
            cut=(tuple(p["cut"][0]), tuple(p["cut"][1])),
            alice_kraus=_decode(p["alice_kraus"]),
            corrections=tuple((_decode(c["alice"]), _decode(c["bob"]))
                              for c in p["corrections"]))
        for p in doc["protocols"])
    return lc.SynthesisPlan(ensemble=ensemble, protocols=protocols,
                            target=serialize.state_from_dict(doc["target"]))


def _expect_output(key, value):
    def check(result):
        code, report = result
        if code != 0:
            return [f"{key}: exit code {code}"]
        got = report["outputs"][key]
        return [] if got == value else [f"{key}: got {got!r}, expected {value!r}"]
    return check


def _expect_tangle(value):
    def check(result):
        code, report = result
        if code != 0:
            return [f"tangle: exit code {code}"]
        got = report["outputs"]["three_tangle"]
        return [] if abs(got - value) <= 1e-9 else [f"tangle {got!r}, expected {value}"]
    return check


def _check_bipartite(result):
    code, report = result
    if code != 0:
        return [f"obstruct: exit code {code}"]
    verdict = report["outputs"]["verdict"]
    return [] if verdict == lc.LCCC_BIPARTITE else [f"obstruct: verdict {verdict}"]


def _expect_invalid(result):
    code, _ = result
    return [] if code == EXIT_INVALID else [f"malformed input: exit code {code}"]


def make(name, **sizes):
    if name in ("search_qubits", "search_wide"):
        return SearchWorkload(name, **sizes)
    if name == "cli_batch":
        return CliBatch(**sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search_qubits", "search_wide", "cli_batch")
