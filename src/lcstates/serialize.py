"""JSON file formats shared across the package.

Complex numbers are 2-element arrays [re, im].  A state file is
{"shape": [d1,...,dn], "kind": "pure"|"density", "data": ...} where pure
data is a flat amplitude list and density data is a row-major list of
rows.  A channel file is {"dim": d, "kraus": [matrix, ...]}.  Writers emit
full double precision; loaders re-validate every invariant.
"""

import itertools
import json

import numpy as np

from .channels import LocalChannel
from .states import (DensityMatrix, InvariantError, PureState, SystemShape,
                     _is_int)


def _encode(a):
    """Complex array of any rank -> the same nesting of [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _decode(data, rank):
    """Nested [re, im] pairs -> complex array of the given rank.

    Every leaf must be a JSON number: numpy would read "1.5" as 1.5 and
    true as 1.0.  The pairs are viewed as complex rather than combined as
    re + 1j*im, which would turn a real part of -0.0 into 0.0.
    """
    try:
        pairs = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"malformed complex array: {exc}")
    if pairs.ndim != rank + 1 or pairs.shape[-1] != 2:
        raise InvariantError(f"expected rank-{rank} [re, im] pairs, "
                             f"got shape {pairs.shape}")
    leaves = data
    for _ in range(rank):       # regular nesting, rank + 1 deep, as pairs shows
        leaves = itertools.chain.from_iterable(leaves)
    bad = sorted(k.__name__ for k in set(map(type, leaves))
                 if issubclass(k, bool) or not issubclass(k, (int, float)))
    if bad:
        raise InvariantError(f"complex array entries must be numbers, got {bad}")
    return pairs.view(complex)[..., 0]


def _state_doc(shape, kind, data):
    return {"shape": list(shape.local_dims), "kind": kind, "data": data}


def state_to_dict(state):
    if isinstance(state, PureState):
        return _state_doc(state.shape, "pure", _encode(state.amplitudes))
    if isinstance(state, DensityMatrix):
        return _state_doc(state.shape, "density", _encode(state.entries))
    raise InvariantError(f"not a state: {type(state).__name__}")


def _pure_docs(states):
    """Documents of pure states over one shape, encoded as one stack."""
    data = _encode(np.stack([s.amplitudes for s in states]))
    return [_state_doc(s.shape, "pure", x) for s, x in zip(states, data)]


def state_from_dict(doc):
    try:
        dims = doc["shape"]
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"malformed state document: {exc}")
    if not (isinstance(dims, list) and all(_is_int(d) for d in dims)):
        raise InvariantError(
            f"state shape must be a list of integers, got {dims!r}")
    shape = SystemShape(tuple(dims))
    if kind == "pure":
        return PureState(shape, _decode(data, 1))
    if kind == "density":
        return DensityMatrix(shape, _decode(data, 2))
    raise InvariantError(f"unknown state kind {kind!r}")


def save_state(state, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(state_to_dict(state)))


def load_state(path):
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def channel_to_dict(channel):
    return {"dim": channel.dim, "kraus": _encode(channel.kraus)}


def channel_from_dict(doc):
    try:
        dim = doc["dim"]
        kraus = doc["kraus"]
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"malformed channel document: {exc}")
    if not _is_int(dim):
        raise InvariantError(f"channel dim must be an integer, got {dim!r}")
    return LocalChannel(dim, _decode(kraus, 3))


def save_channel(channel, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(channel_to_dict(channel)))


def load_channel(path):
    with open(path) as fh:
        return channel_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# reports for the richer objects


def ensemble_to_dict(ens):
    return {"probabilities": ens.probabilities.tolist(),
            "states": _pure_docs(ens.states)}


def _protocol_docs(protocols):
    """Documents of protocols over one shape and outcome count; targets,
    Kraus operators and each side's corrections are encoded as one stack."""
    targets = _pure_docs([p.target for p in protocols])
    kraus = _encode(np.stack([p.alice_kraus for p in protocols]))
    alice, bob = (_encode(np.stack([[c[side] for c in p.corrections]
                                    for p in protocols]))
                  for side in (0, 1))
    return [{"cut": [list(p.cut[0]), list(p.cut[1])],
             "target": t,
             "alice_kraus": k,
             "corrections": [{"alice": a, "bob": b} for a, b in zip(pa, pb)]}
            for p, t, k, pa, pb in zip(protocols, targets, kraus, alice, bob)]


def protocol_to_dict(proto):
    return _protocol_docs([proto])[0]


def plan_to_dict(plan):
    return {"ensemble": ensemble_to_dict(plan.ensemble),
            "protocols": _protocol_docs(plan.protocols),
            "target": state_to_dict(plan.target)}


def configuration_to_dict(config):
    return {"precursor": state_to_dict(config.precursor),
            "channels": [channel_to_dict(c) for c in config.channels]}


def search_result_to_dict(result):
    return {"best": configuration_to_dict(result.best),
            "hs_distance": result.hs_distance,
            "trace_distance": result.trace_distance,
            "restarts_run": result.restarts_run,
            "master_seed": result.master_seed,
            "per_restart_log": [
                {"seed": int(s), "final_objective": float(o),
                 "trace_length": int(n)}
                for s, o, n in result.per_restart_log],
            "diagnostics": [
                {"iterations": d.iterations, "stop_reason": d.stop_reason,
                 "accepted_steps": d.accepted_steps,
                 "rejected_steps": d.rejected_steps}
                for d in result.diagnostics]}


def certificate_to_dict(cert):
    doc = {"verdict": cert.verdict}
    if cert.decomposition is not None:
        p, psi_a, psi_b = cert.decomposition
        doc["decomposition"] = {"p": float(p),
                                "state_a": state_to_dict(psi_a),
                                "state_b": state_to_dict(psi_b)}
    if cert.classes is not None:
        doc["classes"] = [c.label for c in cert.classes]
    if cert.plan is not None:
        doc["plan"] = plan_to_dict(cert.plan)
    if cert.reason is not None:
        doc["reason"] = cert.reason
    return doc
