"""JSON file formats shared across the package.

Complex numbers are 2-element arrays [re, im].  A state file is
{"shape": [d1,...,dn], "kind": "pure"|"density", "data": ...} where pure
data is a flat amplitude list and density data is a row-major list of
rows.  A channel file is {"dim": d, "kraus": [matrix, ...]}.  Writers emit
full double precision; loaders re-validate every invariant.
"""

import json

import numpy as np

from .channels import LocalChannel
from .states import DensityMatrix, InvariantError, PureState, SystemShape


def _encode_complex(z):
    return [float(np.real(z)), float(np.imag(z))]


def _encode_vector(v):
    return [_encode_complex(z) for z in np.asarray(v).reshape(-1)]


def _encode_matrix(m):
    return [[_encode_complex(z) for z in row] for row in np.asarray(m)]


def _decode_complex(pair):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InvariantError("complex numbers must be [re, im] pairs")
    return complex(float(pair[0]), float(pair[1]))


def _decode_vector(data):
    return np.array([_decode_complex(p) for p in data], dtype=complex)


def _decode_matrix(data):
    return np.array([[_decode_complex(p) for p in row] for row in data],
                    dtype=complex)


def state_to_dict(state):
    if isinstance(state, PureState):
        return {"shape": list(state.shape.local_dims), "kind": "pure",
                "data": _encode_vector(state.amplitudes)}
    if isinstance(state, DensityMatrix):
        return {"shape": list(state.shape.local_dims), "kind": "density",
                "data": _encode_matrix(state.entries)}
    raise InvariantError(f"not a state: {type(state).__name__}")


def state_from_dict(doc):
    try:
        shape = SystemShape(tuple(int(d) for d in doc["shape"]))
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"malformed state document: {exc}")
    if kind == "pure":
        return PureState(shape, _decode_vector(data))
    if kind == "density":
        return DensityMatrix(shape, _decode_matrix(data))
    raise InvariantError(f"unknown state kind {kind!r}")


def save_state(state, path):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh)


def load_state(path):
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def channel_to_dict(channel):
    return {"dim": channel.dim,
            "kraus": [_encode_matrix(k) for k in channel.kraus]}


def channel_from_dict(doc):
    try:
        dim = int(doc["dim"])
        kraus = np.stack([_decode_matrix(k) for k in doc["kraus"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantError(f"malformed channel document: {exc}")
    c = LocalChannel(dim, kraus)
    if c.completeness_residual() > 1e-7:
        raise InvariantError("channel file violates completeness")
    return c


def save_channel(channel, path):
    with open(path, "w") as fh:
        json.dump(channel_to_dict(channel), fh)


def load_channel(path):
    with open(path) as fh:
        return channel_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# reports for the richer objects


def ensemble_to_dict(ens):
    return {"probabilities": [float(p) for p in ens.probabilities],
            "states": [state_to_dict(s) for s in ens.states]}


def protocol_to_dict(proto):
    return {"cut": [list(proto.cut[0]), list(proto.cut[1])],
            "target": state_to_dict(proto.target),
            "alice_kraus": [_encode_matrix(k) for k in proto.alice_kraus],
            "corrections": [{"alice": _encode_matrix(a), "bob": _encode_matrix(b)}
                            for a, b in proto.corrections]}


def plan_to_dict(plan):
    return {"ensemble": ensemble_to_dict(plan.ensemble),
            "protocols": [protocol_to_dict(p) for p in plan.protocols],
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
