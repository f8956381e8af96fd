"""Batch command-line front end.

Every invocation prints a single JSON report on standard output:
{"command", "inputs", "outputs", "seed", "elapsed_ms"}.  Diagnostics go to
standard error.  Exit codes: 0 success (--help included), 1 usage error
(a missing or unknown command, or bad options, as argparse reports it), 2
input validation failure (an input file that is not a JSON document, a
failed linear-algebra routine and a `state` kind that `canonical_state`
does not know included), 3 unsupported request.  Given
identical inputs and seed the outputs are byte-identical across runs
(elapsed_ms aside).

Parse rule: an argv whose first item names a command is parsed by that
command's own parser alone; every other argv (none, -h/--help, an unknown
command), and a command's argv that its parser leaves unrecognized, by
the top-level parser.  The result, exit code and messages are what the
top-level parser alone gives.  An argv item that is not a string is a
usage error.
"""

import argparse
import functools
import inspect
import json
import math
import sys
import time

import numpy as np

from . import reach, serialize
from .channels import apply_product_channel, parameter_counts
from .locc import build_conversion, lccc_synthesize_bipartite
from .slocc import classify_three_qubit, three_tangle
from .states import (InvariantError, PureState, UnsupportedError,
                     canonical_state)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3


@functools.cache
def _parsers():
    """The top-level parser and each command's own parser, by name."""
    p = argparse.ArgumentParser(prog="lcstates", add_help=True)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", help="write a canonical state file")
    # canonical_state decides the kinds, which options each takes, and
    # their defaults
    sp.add_argument("--kind", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("noise-apply", help="apply a product channel to a state")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--channel", required=True,
                    help="comma-separated channel files, one per party")
    sp.add_argument("--out", required=True)

    for name in ("classify", "tangle", "obstruct"):
        sp = sub.add_parser(name)
        sp.add_argument("--in", dest="infile", required=True)

    sp = sub.add_parser("param-count")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("convert", help="deterministic conversion protocol")
    sp.add_argument("--target", required=True)
    sp.add_argument("--cut", required=True,
                    help='bipartition such as "0|1" or "0,1|2"')

    sp = sub.add_parser("synthesize")
    sp.add_argument("--target", required=True)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("lc-search")
    sp.add_argument("--target", required=True)
    sp.add_argument("--config", required=True,
                    help="JSON search options file")
    return p, sub.choices


def _parse_args(argv):
    """argv's Namespace by the parse rule (module docstring); exits as
    argparse does.  `command` is set first, as the top-level parser sets
    it, so a report's inputs keep their order."""
    top, commands = _parsers()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return top.parse_args(argv)


def _parse_cut(spec):
    try:
        left, right = spec.split("|")
        return (tuple(int(x) for x in left.split(",")),
                tuple(int(x) for x in right.split(",")))
    except ValueError:
        raise InvariantError(f"bad cut specification {spec!r}")


# lc_distance_search's keyword parameters, after the target
SEARCH_OPTIONS = tuple(inspect.signature(reach.lc_distance_search).parameters)[1:]


def _search_options(opts):
    """Check an lc-search config object's form; returns it unchanged.

    The option values are checked by lc_distance_search itself.
    """
    if not isinstance(opts, dict):
        raise InvariantError("search config must be a JSON object")
    unknown = sorted(set(opts) - set(SEARCH_OPTIONS))
    if unknown:
        raise InvariantError(f"unknown search option(s) {unknown}")
    return opts


def _as_density(state):
    return state.density() if isinstance(state, PureState) else state


def _dispatch(args):
    """Run one command; returns (outputs dict, seed or None)."""
    cmd = args.command
    if cmd == "state":
        given = {k: v for k in ("n", "d", "p") if (v := getattr(args, k)) is not None}
        doc = serialize.save_state(canonical_state(args.kind, **given), args.out)
        return {"written": args.out, "shape": doc["shape"], "kind": doc["kind"]}, None

    if cmd == "noise-apply":
        rho = _as_density(serialize.load_state(args.infile))
        channels = [serialize.load_channel(f) for f in args.channel.split(",")]
        out = apply_product_channel(channels, rho)
        serialize.save_state(out, args.out)
        return {"written": args.out}, None

    if cmd in ("classify", "tangle"):
        # the library checks psi: a PureState, of three qubits
        psi = serialize.load_state(args.infile)
        if cmd == "classify":
            return {"class": classify_three_qubit(psi).label}, None
        return {"three_tangle": three_tangle(psi)}, None

    if cmd == "param-count":
        # one rule: a count of more than `limit` digits is refused, limit
        # being Python's get_int_max_str_digits() with 0 (no limit) counting
        # as the default 4300.  mixed_dim = d^(2n) - 1 has about 2n log10(d)
        # digits, so counts certainly too long are refused before they are
        # computed, the rest by comparing the largest with 10^limit
        n, d = args.n, args.d
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        pc = None if d >= 2 and 2 * n * math.log10(d) > limit + 1 else parameter_counts(n, d)
        if pc is None or max(pc.pure_dim, pc.lc_bound, pc.mixed_dim) >= 10 ** limit:
            raise UnsupportedError(f"parameter counts for n={n}, d={d} "
                                   "have too many digits to print")
        return {"pure_dim": pc.pure_dim, "lc_bound": pc.lc_bound,
                "mixed_dim": pc.mixed_dim,
                "lc_strictly_smaller": pc.lc_strictly_smaller}, None

    if cmd == "convert":
        proto = build_conversion(serialize.load_state(args.target),
                                 _parse_cut(args.cut))
        proto.verify()
        return serialize.protocol_to_dict(proto), None

    if cmd == "synthesize":
        rho = _as_density(serialize.load_state(args.target))
        plan, _, td = lccc_synthesize_bipartite(rho, args.samples, args.seed)
        return {"plan": serialize.plan_to_dict(plan),
                "report": {"N": args.samples, "seed": args.seed,
                           "trace_distance": td}}, args.seed

    if cmd == "lc-search":
        rho = _as_density(serialize.load_state(args.target))
        opts = _search_options(serialize._read_json(args.config))
        result = reach.lc_distance_search(rho, **opts)
        return serialize.search_result_to_dict(result), result.master_seed

    if cmd == "obstruct":
        rho = _as_density(serialize.load_state(args.infile))
        cert = reach.lccc_obstruction_check(rho)
        return serialize.certificate_to_dict(cert), None

    raise AssertionError(f"unhandled command {cmd}")


def run_command(argv):
    """Execute one CLI invocation; returns (exit_code, report dict or None)."""
    # argv None reads sys.argv, as argparse does
    bad = sorted({type(a).__name__ for a in argv or () if not isinstance(a, str)})
    if bad:
        print(f"lcstates: error: arguments must be strings, got {bad}",
              file=sys.stderr)
        return EXIT_USAGE, None
    try:
        args = _parse_args(argv)
    except SystemExit as exc:   # code 0 after --help, 2 after a usage error
        return (EXIT_OK if exc.code == 0 else EXIT_USAGE), None

    start = time.monotonic()
    try:
        outputs, seed = _dispatch(args)
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED, None
    except (InvariantError, OSError, np.linalg.LinAlgError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID, None

    inputs = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    report = {"command": args.command,
              "inputs": inputs,
              "outputs": outputs,
              "seed": seed,
              "elapsed_ms": int((time.monotonic() - start) * 1000)}
    return EXIT_OK, report


def main(argv=None):
    code, report = run_command(sys.argv[1:] if argv is None else list(argv))
    if report is not None:
        sys.stdout.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
