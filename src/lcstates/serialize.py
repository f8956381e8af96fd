"""JSON file formats shared across the package.

Complex numbers are 2-element arrays [re, im].  A state file is
{"shape": [d1,...,dn], "kind": "pure"|"density", "data": ...} where pure
data is a flat amplitude list and density data is a row-major list of
rows; `_STATE_KINDS` maps each kind to its class for reading and writing.
A channel file is {"dim": d, "kraus": [matrix, ...]}.  Every file is read
by `_read_json` and written by `_write_json`.  Writers emit full double
precision; loaders re-validate every invariant.  `_decode` walks a
document's nested lists once, level by level, into one flat float array,
and names the level, shape or leaf type of each malformed one.
"""

import dataclasses
import itertools
import json

import numpy as np

from .channels import LocalChannel
from .locc import _stacked_corrections
from .states import (DensityMatrix, InvariantError, PureState, _check_choice,
                     _check_type, _shape_argument)


def _read_json(path):
    """The JSON document in the file at path, read as UTF-8.  A file that
    is not one (bytes that are not UTF-8, bad syntax, nesting too deep to
    parse, an integer literal with too many digits) is an InvariantError
    naming the file; a file that cannot be opened is an OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvariantError(f"{path} is not a JSON document: {exc}") from None


def _write_json(doc, path):
    """Write doc to the file at path as one line of UTF-8 JSON; returns doc."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return doc


def _fields(doc, names, what):
    """doc's values under names, in order; a doc that is not a JSON object
    holding them all is an InvariantError naming what it documents."""
    try:
        return [doc[name] for name in names]
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"malformed {what} document: {exc}")


def _encode(a):
    """Complex array of any rank -> the same nesting of [re, im] pairs: a
    C-ordered array's float view, the pairs as a last axis of 2."""
    a = np.asarray(a, dtype=complex, order="C")
    return a[..., None].view(float).tolist()


def _decode(data, rank):
    """Nested [re, im] pairs -> complex array of the given rank, in one walk.

    Level k of data holds the entries k indices deep; data is level 0.  The
    walk goes down while a level's entries are all lists, tuples or numpy
    arrays (those exact types) of one length; the first level holding none
    is the leaves, read as one float array.  The pairs are viewed as
    complex rather than combined as re + 1j*im, which would turn a real
    part of -0.0 into 0.0.

    Each refusal is an InvariantError, in the order checked: a level that
    mixes lists with other entries, or holds lists of several lengths,
    named by its level; an int beyond the float range, met by the float
    conversion before any leaf it cannot read; a nesting that is not
    rank + 1 deep with a last axis of 2, named by its shape; a leaf that is
    not an int or float (subclasses included, bool not), named by its type:
    numpy would read true as 1.0 and "1.5" as 1.5.
    """
    leaves, shape, lists = [data], [], {list, tuple, np.ndarray}
    while leaves and not (types := set(map(type, leaves))).isdisjoint(lists):
        try:
            lengths = set(map(len, leaves)) if types <= lists else ()
        except TypeError:       # a 0-d array has no length
            lengths = ()
        if len(lengths) != 1:
            raise InvariantError(f"ragged complex array: the entries at level "
                                 f"{len(shape)} are not lists of one length")
        shape += lengths
        leaves = list(itertools.chain.from_iterable(leaves))
    try:
        pairs = np.array(leaves, dtype=float)
    except OverflowError as exc:    # an int beyond the float range
        raise InvariantError(f"malformed complex array: {exc}") from None
    except (TypeError, ValueError):     # a leaf that is no number: named below
        pairs = None
    if len(shape) != rank + 1 or shape[-1] != 2:
        raise InvariantError(f"expected rank-{rank} [re, im] pairs, got shape {tuple(shape)}")
    bad = sorted(k.__name__ for k in types
                 if issubclass(k, bool) or not issubclass(k, (int, float)))
    if bad:
        raise InvariantError(f"complex array entries must be numbers, got {bad}")
    return pairs.reshape(shape).view(complex)[..., 0]


# each state document kind: its class, the name of its array, the array's rank
_STATE_KINDS = {"pure": (PureState, "amplitudes", 1),
                "density": (DensityMatrix, "entries", 2)}


def _state_doc(shape, kind, data):
    return {"shape": list(shape.local_dims), "kind": kind, "data": data}


def state_to_dict(state):
    _check_type("state", state, tuple(cls for cls, _, _ in _STATE_KINDS.values()))
    for kind, (cls, attr, _) in _STATE_KINDS.items():
        if isinstance(state, cls):
            return _state_doc(state.shape, kind, _encode(getattr(state, attr)))


def _pure_docs(states):
    """Documents of pure states over one shape, encoded as one stack."""
    data = _encode(np.array([s.amplitudes for s in states]))
    return [_state_doc(s.shape, "pure", x) for s, x in zip(states, data)]


def state_from_dict(doc):
    dims, kind, data = _fields(doc, ("shape", "kind", "data"), "state")
    shape = _shape_argument("state shape", dims)
    cls, _, rank = _STATE_KINDS[_check_choice("state kind", kind, _STATE_KINDS)]
    return cls(shape, _decode(data, rank))


def save_state(state, path):
    """Write state's document to path; returns the document."""
    return _write_json(state_to_dict(state), path)


def load_state(path):
    return state_from_dict(_read_json(path))


def channel_to_dict(channel):
    _check_type("channel", channel, LocalChannel)
    return {"dim": channel.dim, "kraus": _encode(channel.kraus)}


def channel_from_dict(doc):
    dim, kraus = _fields(doc, ("dim", "kraus"), "channel")
    return LocalChannel(dim, _decode(kraus, 3))


def save_channel(channel, path):
    _write_json(channel_to_dict(channel), path)


def load_channel(path):
    return channel_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# reports for the richer objects


def ensemble_to_dict(ens):
    return {"probabilities": ens.probabilities.tolist(),
            "states": _pure_docs(ens.states)}


def _protocol_docs(protocols, targets):
    """Documents of protocols over one shape, cut and outcome count
    (`_stacked_corrections`, else InvariantError), targets[i] the document
    of protocol i's target; Kraus operators and each side's corrections
    are encoded as one stack."""
    alice, bob = map(_encode, _stacked_corrections(protocols))
    kraus = _encode(np.array([p.alice_kraus for p in protocols]))
    return [{"cut": [list(p.cut[0]), list(p.cut[1])],
             "target": t,
             "alice_kraus": k,
             "corrections": [{"alice": a, "bob": b} for a, b in zip(pa, pb)]}
            for p, t, k, pa, pb in zip(protocols, targets, kraus, alice, bob)]


def protocol_to_dict(proto):
    return _protocol_docs([proto], _pure_docs([proto.target]))[0]


def plan_to_dict(plan):
    """The plan's document.  Each ensemble state is encoded once: when
    protocol i's target is ensemble state i, as in every plan
    `locc.build_synthesis_plan` makes, the protocols reuse the ensemble's
    state documents; the document still holds both copies."""
    ensemble = ensemble_to_dict(plan.ensemble)
    if all(p.target is s for p, s in zip(plan.protocols, plan.ensemble.states)):
        targets = ensemble["states"]
    else:
        targets = _pure_docs([p.target for p in plan.protocols])
    return {"ensemble": ensemble,
            "protocols": _protocol_docs(plan.protocols, targets),
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
            "diagnostics": [dataclasses.asdict(d) for d in result.diagnostics]}


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
