"""lcstates benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload search_qubits --seed 1 --seconds 35 --trace 0

Set-up (import, input and file generation, warm-up) is repeated
SETUP_REPEATS times and its median reported.  Then passes of the workload
run until --seconds have elapsed (at least one pass).  Each operation's
output is checked.  With --trace 0 the result holds the end-to-end
metrics; with --trace 1 passes alternate between untraced and traced, and
the result holds the per-layer metrics from the traced passes plus the
tracing overhead (median traced pass over median untraced pass).  Times
are normalised to reference speed (see speed.py); raw wall times are
printed and recorded beside them.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}.  `attempted` and `failed` count operations on valid input.
The malformed-input probes of cli_batch are counted apart: they show in
error_frac (printed) and ok_frac (a metric), so that a run on which every
valid operation succeeds still reports the CLI's input-hardening defects.
A full record (environment, samples, spreads, self times) is written to
.bench_out/ in the checkout, and with --trace 1 the spans as well.
"""

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHAPES = ("222", "2222", "333")
MODULES = ("reach", "channels", "states", "slocc", "locc", "serialize", "cli")

# one BLAS thread: the matrices are at most 27 x 27, so threads only add
# noise, and the search stays bit-for-bit reproducible
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import spans  # noqa: E402  (numpy must see the thread settings)
import speed  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True,
                   choices=("search_qubits", "search_wide", "cli_batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _import_seconds():
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lcstates"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def _summary(xs):
    """Median, quartiles, the highest percentile with ten samples beyond it."""
    if not xs:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    med = statistics.median(xs)
    out = {"n": len(xs), "median": med, "q1": q1, "q3": q3,
           "iqr_over_median": (q3 - q1) / med if med else 0.0}
    for pct in (99, 90):
        if len(xs) >= 10 * 100 // (100 - pct):
            out[f"p{pct}"] = statistics.quantiles(xs, n=100)[pct - 1]
            break
    return out


def _environment():
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(),
           "nproc": len(os.sched_getaffinity(0)),
           "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/self/status") as fh:
            env["os_threads"] = int(next(line.split()[1] for line in fh
                                         if line.startswith("Threads:")))
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except (OSError, StopIteration):
        pass
    return env


# ---------------------------------------------------------------------------
# the timed loop


def _run_pass(wl, i, records, tracer, ref, ref_before):
    """Run pass i.  Returns (raw seconds, normalised seconds, the last
    reference time).  The reference is timed after every operation of a
    workload with long operations, else once after the pass."""
    raw_total = norm_total = 0.0
    for op in wl.ops(i):
        idx = len(records)
        problems = []
        if tracer is not None:
            tracer.op, tracer.tag = idx, op.tag
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"op.{op.kind}"):
                    result = op.run()
            else:
                result = op.run()
            dt = time.perf_counter() - t0
            problems = op.check(result)
        except Exception as exc:   # an operation that raises is a failure
            dt = time.perf_counter() - t0
            problems = [f"{op.kind}: {type(exc).__name__}: {exc}"]
        raw_total += dt
        if wl.ref_each_op:
            ref_after = ref.seconds()
            norm_total += _normalised(dt, ref_before, ref_after)
            ref_before = ref_after
        records.append({"pass": i, "kind": op.kind, "tag": op.tag,
                        "seconds": dt, "probe": op.probe,
                        "traced": tracer is not None, "problems": problems})
    if not wl.ref_each_op:
        ref_after = ref.seconds()
        norm_total = _normalised(raw_total, ref_before, ref_after)
        ref_before = ref_after
    return raw_total, norm_total, ref_before


def _timed_loop(wl, seconds, tracer, ref):
    """Run passes until `seconds` have elapsed.  Returns the operation
    records and, per pass, (traced, raw seconds, normalised seconds)."""
    records, passes = [], []
    min_passes = 2 if tracer is not None else 1
    deadline = time.perf_counter() + seconds
    ref_before = ref.seconds()
    i = 0
    while i < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            wl.tracer = tracer
        try:
            raw, norm, ref_before = _run_pass(wl, i, records,
                                              tracer if traced else None,
                                              ref, ref_before)
        finally:
            if traced:
                tracer.uninstall()
                wl.tracer = None
        passes.append((traced, raw, norm))
        i += 1
    return records, passes


def _normalised(raw, ref_before, ref_after):
    return raw * speed.NOMINAL_S / ((ref_before + ref_after) / 2)


# ---------------------------------------------------------------------------
# metrics


def _mean_us(tracer, label, tag=None):
    idx = tracer.outermost(label, tag)
    if not idx:
        return 0.0
    return sum(tracer.ends[i] - tracer.starts[i] for i in idx) / len(idx) / 1e3


def per_layer_metrics(tracer, wl, records, passes):
    """Per-layer metrics from the traced passes (see bench/README.md)."""
    traced_ops = [r for r in records if r["traced"]]
    ops_by_tag = {}
    for r in traced_ops:
        ops_by_tag[r["tag"]] = ops_by_tag.get(r["tag"], 0) + 1
    n_ops = max(len(traced_ops), 1)

    def count(label, tag=None):
        return len(tracer.outermost(label, tag))

    def per_op(label, tag=None):
        ops = ops_by_tag.get(tag, 0) if tag is not None else n_ops
        return count(label, tag) / ops if ops else 0.0

    m = {}
    stats = getattr(wl, "stats", {})
    for s in SHAPES:
        for layer in ("objective", "gradient", "precursor", "retract"):
            m[f"reach.{layer}.us.{s}"] = _mean_us(tracer, f"reach.{layer}", s)
            m[f"reach.{layer}.calls.{s}"] = per_op(f"reach.{layer}", s)
        flops, nbytes = tracer.computed.get(("gradient", s), (0, 0))
        m[f"reach.gradient.flops.{s}"] = flops
        m[f"reach.gradient.bytes.{s}"] = nbytes
        retracts = count("reach.retract", s)
        m[f"reach.step_accept_ratio.{s}"] = (count("reach.gradient", s) / retracts
                                             if retracts else 0.0)
        st = stats.get(s)
        n_restarts = len(st.iters) if st else 0
        m[f"reach.iters_per_restart.{s}"] = (sum(st.iters) / n_restarts
                                             if n_restarts else 0.0)
        m[f"reach.maxiter_frac.{s}"] = st.at_max / n_restarts if n_restarts else 0.0
        m[f"reach.restart_hit_frac.{s}"] = st.hits / n_restarts if n_restarts else 0.0
        m[f"channels.apply.us.{s}"] = _mean_us(tracer, "channels.apply", s)
        m[f"channels.apply.calls.{s}"] = per_op("channels.apply", s)
        flops, nbytes = tracer.computed.get(("apply", s), (0, 0))
        m[f"channels.apply.flops.{s}"] = flops
        m[f"channels.apply.bytes.{s}"] = nbytes
        m[f"channels.adjoint.us.{s}"] = _mean_us(tracer, "channels.adjoint", s)
        m[f"channels.adjoint.calls.{s}"] = per_op("channels.adjoint", s)

    m["channels.init.us"] = _mean_us(tracer, "channels.init")
    m["channels.init.calls"] = per_op("channels.init")
    m["reach.obstruct.us"] = _mean_us(tracer, "reach.obstruct")
    three_qubit = count("reach.obstruct", "222")
    m["reach.obstruct.bases_tried"] = (count("reach.try_basis", "222") / three_qubit
                                       if three_qubit else 0.0)
    m["reach.obstruct.miss_frac"] = (wl.cert_miss_frac()
                                     if hasattr(wl, "cert_miss_frac") else 0.0)
    for layer in ("eigh", "density_init"):
        m[f"states.{layer}.us"] = _mean_us(tracer, f"states.{layer}")
        m[f"states.{layer}.calls"] = per_op(f"states.{layer}")
    m["states.distance.us"] = _mean_us(tracer, "states.distance")
    m["slocc.classify.us"] = _mean_us(tracer, "slocc.classify")
    m["slocc.classify.calls"] = per_op("slocc.classify")
    m["locc.plan.us"] = _mean_us(tracer, "locc.plan")
    shots = tracer.counters["locc.shots"]
    sample_ns = sum(tracer.ends[i] - tracer.starts[i]
                    for i in tracer.outermost("locc.sample"))
    m["locc.sample.ns_per_shot"] = sample_ns / shots if shots else 0.0
    m["serialize.load.us"] = _mean_us(tracer, "serialize.load")
    m["serialize.dump.us"] = _mean_us(tracer, "serialize.dump")
    m["serialize.bytes_written"] = tracer.counters["serialize.file_bytes"] / n_ops

    dur, own = tracer.self_times_ns()
    cli_runs = tracer.outermost("cli.run")
    m["cli.self.us"] = (sum(own[i] for i in cli_runs) / len(cli_runs) / 1e3
                        if cli_runs else 0.0)
    self_by_module = module_self_times(tracer, dur, own)
    total = sum(self_by_module.values()) or 1
    for mod in MODULES + ("untraced",):
        m[f"self_frac.{mod}"] = self_by_module.get(mod, 0) / total

    # layer times are normalised to reference speed like the passes
    scale = statistics.median([n / raw for flag, raw, n in passes if flag and raw > 0])
    for k in m:
        if layer_unit(k) in ("us", "ns"):
            m[k] *= scale
    traced = [t for flag, _, t in passes if flag]
    untraced = [t for flag, _, t in passes if not flag]
    m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced)
                                 if traced and untraced else 0.0)
    return m


def module_self_times(tracer, dur, own):
    """Self time (ns) per module; an operation's root span's self time is
    the part no traced layer covers."""
    out = {}
    for i, label in enumerate(tracer.labels):
        mod = "untraced" if label.startswith("op.") else label.split(".")[0]
        out[mod] = out.get(mod, 0) + own[i]
    return out


def end_to_end_metrics(setup, records, passes, wl):
    """Times are normalised to reference speed (see speed.py)."""
    failures = sum(1 for r in records if r["problems"])
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median([t for _, _, t in passes]),
        # digits of accuracy: a trace distance spans decades, and a share of
        # a median only makes sense for a positive figure of merit; capped
        # at double precision so an exact fit stays finite
        "residual_digits": -math.log10(max(wl.residual(), 1e-16)),
        "ok_frac": 1.0 - failures / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


UNITS = {"setup_s": "s", "pass_s": "s", "residual_digits": "digits",
         "ok_frac": "frac", "peak_rss_mb": "MB"}


def layer_unit(name):
    if ".us" in name:
        return "us"
    if name.endswith("ns_per_shot"):
        return "ns"
    if ".flops." in name:
        return "flop"
    if ".bytes" in name or name.endswith("bytes_written"):
        return "B"
    if ".calls" in name or name.endswith("bases_tried") or "iters_per" in name:
        return "count"
    if name.endswith("_ratio") or "ratio" in name:
        return "ratio"
    return "frac"


# ---------------------------------------------------------------------------
# report


def workload_figures(wl, records, e2e):
    """The named figures a reader of one workload looks for, with units.
    Times here are raw wall times."""
    out = {}
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["seconds"])
    if "search" in by_kind:
        s = _summary(by_kind["search"])
        out["search_s"] = (s["median"], "s")
        if "p90" in s:
            out["search_p90_s"] = (s["p90"], "s")
    for kind, name in (("synthesize", "synth_s"), ("obstruct", "obstruct_s")):
        if kind in by_kind:
            out[name] = (statistics.median(by_kind[kind]), "s")
    if wl.name == "cli_batch":
        out["cli_ops_per_s"] = (len(records) / sum(r["seconds"] for r in records), "1/s")
    out.update(wl.named_metrics())
    out["error_frac"] = (1.0 - e2e["ok_frac"], "frac")
    out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    return out


def _print_report(args, env, named, spreads, metrics, absent, problems):
    print(f"lcstates benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if named:
        print("named metrics:")
        for k, (v, unit) in named.items():
            print(f"  {k:<28} {v:.6g} {unit}")
    print("spread within the run (median [q1, q3], n):")
    for k, s in spreads.items():
        if s.get("n"):
            extra = "".join(f" p{p}={s[f'p{p}']:.4g}" for p in (90, 99) if f"p{p}" in s)
            print(f"  {k:<28} {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                  f"n={s['n']}{extra}")
    print("metrics:")
    for k, v in metrics.items():
        note = ""
        if args.trace and any(k.startswith(a + ".") for a in absent):
            note = "  (absent: layer not found)"
        elif args.trace and any(x in k for x in (".flops.", ".bytes.")):
            note = "  (computed)"
        print(f"  {k:<32} {v:.6g}{note}")
    if absent:
        print("absent layers: " + ", ".join(absent))
    for p in sorted(set(problems)):
        print(f"problem ({problems.count(p)}x): {p}")


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (SRC / "lcstates" / "__init__.py").is_file():
        return _fail(f"no lcstates sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import lcstates
    if pathlib.Path(lcstates.__file__).resolve().parent != SRC / "lcstates":
        return _fail(f"imported lcstates from {lcstates.__file__}, not {SRC}")
    import workloads

    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    ref = speed.Reference()
    try:
        setup, setup_raw = [], []
        for r in range(SETUP_REPEATS):
            ref_before = ref.seconds()
            import_s = _import_seconds()
            t0 = time.perf_counter()
            wl = workloads.make(args.workload)
            wl.prepare(work / f"setup{r}", args.seed, ROOT)
            wl.warm_up()
            raw = import_s + time.perf_counter() - t0
            setup_raw.append(raw)
            setup.append(_normalised(raw, ref_before, ref.seconds()))
        tracer = spans.Tracer() if args.trace else None
        records, passes = _timed_loop(wl, args.seconds, tracer, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    valid = [r for r in records if not r["probe"]]
    failed_valid = [r for r in valid if r["problems"]]
    problems = [p for r in records for p in r["problems"]]
    e2e = end_to_end_metrics(setup, [r for r in records if not r["traced"]],
                             [p for p in passes if not p[0]], wl)
    named = workload_figures(wl, [r for r in records if not r["traced"]], e2e)
    named["setup_s"] = (statistics.median(setup_raw), "s")
    spreads = {"setup_s (normalised)": _summary(setup),
               "setup_s (raw)": _summary(setup_raw),
               "pass_s (normalised)": _summary([t for f, _, t in passes if not f]),
               "pass_s (raw)": _summary([t for f, t, _ in passes if not f])}
    for kind in sorted({r["kind"] for r in records}):
        spreads[f"{kind}_s"] = _summary([r["seconds"] for r in records
                                         if r["kind"] == kind and not r["traced"]])
    if args.trace:
        metrics = per_layer_metrics(tracer, wl, records, passes)
        # a hook that failed leaves its computed figure at 0
        absent = tracer.absent + sorted(f"{h} (hook failed)" for h in tracer.hook_errors)
    else:
        metrics = e2e
        absent = []
    env = _environment()
    _print_report(args, env, named, spreads, metrics, absent, problems)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "environment": env, "metrics": metrics,
              "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "spreads": spreads, "absent_layers": absent, "problems": problems,
              "probes": {"attempted": sum(r["probe"] for r in records),
                         "failed": sum(1 for r in records if r["probe"] and r["problems"])},
              "passes": [{"traced": f, "seconds": t, "normalised": n}
                         for f, t, n in passes]}
    if args.trace:
        dur, own = tracer.self_times_ns()
        record["self_ns_by_module"] = module_self_times(tracer, dur, own)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    units = UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    print(json.dumps({"correct": not failed_valid,
                      "attempted": len(valid),
                      "failed": len(failed_valid),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
