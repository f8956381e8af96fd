"""The JSON file formats: exact bytes, bit-exact round trips and strict
validation of the numbers, shapes and dims a document carries."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lcstates import (ConversionProtocol, DensityMatrix, Ensemble,
                      InvariantError, LocalChannel, PureState, SynthesisPlan,
                      SystemShape, build_conversion, dephasing_channel,
                      ghz_state, random_local_channel, simulate_synthesis)
from lcstates import serialize
from conftest import random_density, random_pure

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)
SHAPES = st.sampled_from([(2,), (3,), (2, 2), (2, 3), (2, 2, 2)])
SEEDS = st.integers(0, 2 ** 32 - 1)
# every finite double, with the edge cases always in the mix
ANY_FINITE = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]),
                       st.floats(allow_nan=False, allow_infinity=False))
# small enough to sit in an exactly-zero block without breaking an invariant
TINY = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324]),
                 st.floats(-1e-12, 1e-12))


def _complex(shape, elements):
    return hnp.arrays(float, tuple(shape) + (2,), elements=elements).map(
        lambda a: a.view(complex)[..., 0])


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _through_text(doc):
    return json.loads(json.dumps(doc))


@PROPERTY
@given(st.data(), st.integers(1, 3))
def test_codec_round_trip_is_bit_exact(data, rank):
    shape = data.draw(hnp.array_shapes(min_dims=rank, max_dims=rank, max_side=4))
    a = data.draw(_complex(shape, ANY_FINITE))
    back = serialize._decode(_through_text(serialize._encode(a)), rank)
    assert _same_bits(back, a)


@PROPERTY
@given(SHAPES, SEEDS, st.data())
def test_pure_document_round_trip_is_bit_exact(dims, seed, data):
    # a random unit vector on the first half of the basis, drawn tiny
    # entries (signed zeros, subnormals) on the rest
    shape = SystemShape(dims)
    d = shape.total_dim
    half = (d + 1) // 2
    head = random_pure(SystemShape((half,)), np.random.default_rng(seed))
    tail = data.draw(_complex((d - half,), TINY))
    psi = PureState(shape, np.concatenate([head.amplitudes, tail]))
    back = serialize.state_from_dict(_through_text(serialize.state_to_dict(psi)))
    assert isinstance(back, PureState)
    assert back.shape == shape
    assert _same_bits(back.amplitudes, psi.amplitudes)


@PROPERTY
@given(SHAPES, SEEDS, st.data())
def test_density_document_round_trip_is_bit_exact(dims, seed, data):
    # a random density block, a zero block and drawn tiny coherences
    # between them (Hermitian by construction, PSD to within |tiny|^2)
    shape = SystemShape(dims)
    d = shape.total_dim
    half = (d + 1) // 2
    m = np.zeros((d, d), dtype=complex)
    m[:half, :half] = random_density(SystemShape((half,)),
                                     np.random.default_rng(seed)).entries
    m[half:, :half] = data.draw(_complex((d - half, half), TINY))
    m[:half, half:] = m[half:, :half].conj().T
    rho = DensityMatrix(shape, m)
    back = serialize.state_from_dict(_through_text(serialize.state_to_dict(rho)))
    assert isinstance(back, DensityMatrix)
    assert back.shape == shape
    assert _same_bits(back.entries, rho.entries)


@PROPERTY
@given(st.integers(2, 3), st.integers(1, 3), SEEDS, st.data())
def test_channel_document_round_trip_is_bit_exact(d, e, seed, data):
    # an isometry's blocks plus one drawn tiny Kraus operator
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((e * d, d)) + 1j * rng.standard_normal((e * d, d))
    q, _ = np.linalg.qr(z)
    tiny = data.draw(_complex((1, d, d), TINY))
    c = LocalChannel(d, np.concatenate([q.reshape(e, d, d), tiny]))
    back = serialize.channel_from_dict(_through_text(serialize.channel_to_dict(c)))
    assert back.dim == d
    assert _same_bits(back.kraus, c.kraus)


@PROPERTY
@given(st.integers(1, 2), SEEDS, st.data())
def test_protocol_document_round_trip_is_bit_exact(n, seed, data):
    # protocol_to_dict encodes whatever arrays the protocol holds
    target = random_pure(SystemShape((2, 2)), np.random.default_rng(seed))
    kraus = data.draw(_complex((n, 2, 2), ANY_FINITE))
    corrections = tuple((data.draw(_complex((2, 2), ANY_FINITE)),
                         data.draw(_complex((2, 2), ANY_FINITE)))
                        for _ in range(n))
    proto = ConversionProtocol(target=target, cut=((0,), (1,)),
                               alice_kraus=kraus, corrections=corrections)
    doc = _through_text(serialize.protocol_to_dict(proto))
    assert doc["cut"] == [[0], [1]]
    assert _same_bits(serialize.state_from_dict(doc["target"]).amplitudes,
                      target.amplitudes)
    assert _same_bits(serialize._decode(doc["alice_kraus"], 3), kraus)
    for got, (a, b) in zip(doc["corrections"], corrections, strict=True):
        assert _same_bits(serialize._decode(got["alice"], 2), a)
        assert _same_bits(serialize._decode(got["bob"], 2), b)


def _decode_reference(data, rank):
    """The decoder before the one walk: numpy's nested conversion, then
    the shape, then a second walk for the leaf types."""
    try:
        pairs = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"malformed complex array: {exc}")
    if pairs.ndim != rank + 1 or pairs.shape[-1] != 2:
        raise InvariantError(f"expected rank-{rank} [re, im] pairs, "
                             f"got shape {pairs.shape}")
    leaves = data
    for _ in range(rank):
        leaves = itertools.chain.from_iterable(leaves)
    bad = sorted(k.__name__ for k in set(map(type, leaves))
                 if issubclass(k, bool) or not issubclass(k, (int, float)))
    if bad:
        raise InvariantError(f"complex array entries must be numbers, got {bad}")
    return pairs.view(complex)[..., 0]


# a JSON number; then numbers mixed with leaves numpy converts but the
# decoder refuses, and with leaves numpy cannot convert to a float
NUMBERS = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70))
CONVERTIBLE = st.one_of(NUMBERS, st.sampled_from(
    [True, False, None, "1.5", "-0", float("nan"), float("inf"), -0.0, 10 ** 308]))
UNCONVERTIBLE = st.one_of(NUMBERS, st.sampled_from(
    ["x", "", 10 ** 400, -10 ** 400, {}, {"re": 1.0}, []]))


@st.composite
def _nestings(draw):
    """(data, rank): regular nested [re, im] pairs of numbers, or with one
    kind of fault: other leaves; a level missing, extra or empty; pairs of
    another length; a bare scalar; a sub-list ragged at any level."""
    rank = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank)) + [2]
    fault = draw(st.sampled_from(["none", "leaf", "shape", "ragged"]))
    leaf = NUMBERS
    if fault == "leaf":
        leaf = draw(st.sampled_from([CONVERTIBLE, UNCONVERTIBLE]))
    elif fault == "shape":
        level = draw(st.integers(0, rank))
        shape = draw(st.sampled_from([
            shape[:level] + shape[level + 1:], shape[:level] + [2] + shape[level:],
            shape[:level] + [0] + shape[level + 1:], shape[:-1] + [1],
            shape[:-1] + [3], []]))

    def build(dims):
        if not dims:
            return draw(leaf)
        return [build(dims[1:]) for _ in range(dims[0])]

    data = build(shape)
    for _ in range(draw(st.integers(1, 2)) if fault == "ragged" else 0):
        node = data
        while isinstance(node, list) and node:
            i = draw(st.integers(0, len(node) - 1))
            if not isinstance(node[i], list) or draw(st.booleans()):
                node[i] = build(draw(st.lists(st.integers(0, 3), max_size=3)))
                break
            node = node[i]
    return data, rank


# the decoder's four refusals, in its own words
REFUSALS = re.compile(
    r"ragged complex array: the entries at level \d+ are not lists of one length"
    r"|malformed complex array: int too large to convert to float"
    r"|expected rank-\d \[re, im\] pairs, got shape \([\d, ]*\)"
    r"|complex array entries must be numbers, got \[[\w', ]+\]")


def _own_message(message, data):
    """Whether the reference's message is worded by the package: its shape,
    leaf-type and overflow messages.  The rest is numpy's conversion text
    ("inhomogeneous shape after 1 dimensions ...", "could not convert
    string to float"), which the decoder replaces, and the shape (1,) numpy
    gives a bare scalar, which the decoder reports as ()."""
    if message.startswith("malformed complex array: "):
        return message.endswith("int too large to convert to float")
    return "got shape" not in message or isinstance(data, (list, tuple, np.ndarray))


def _decodes_as_reference(data, rank):
    """The decoder accepts what the reference accepts, with the same bits,
    and refuses the rest in one of its own messages: the reference's
    wherever that is the package's own."""
    try:
        want = _decode_reference(data, rank)
    except InvariantError as exc:
        with pytest.raises(InvariantError) as got:
            serialize._decode(data, rank)
        return (REFUSALS.fullmatch(str(got.value)) is not None
                and (str(got.value) == str(exc) or not _own_message(str(exc), data)))
    return _same_bits(serialize._decode(data, rank), want)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_nestings())
def test_decode_matches_reference(case):
    assert _decodes_as_reference(*case)


@pytest.mark.parametrize("data", [
    [[1, 2]], [[10 ** 400, 0.0]], [(1.0, 2.0)], ((1.0, 2.0),), np.ones((1, 2)),
    [[np.float64(0.5), 1.0]], [[np.int64(1), 1.0]]])
def test_decode_edge_inputs_match_reference(data):
    # int leaves, an int beyond the float range, and the tuples, arrays and
    # numpy scalars a document built in Python may hold
    assert _decodes_as_reference(data, 1)


PAIR = [1.0, 0.0]


def _one_leaf(x):
    # a 2 x 2 matrix of pairs whose first leaf is x
    return [[[x, 0.0], PAIR], [PAIR, PAIR]]


def _ragged(level):
    return f"ragged complex array: the entries at level {level} are not lists of one length"


def _shape(shape):
    return f"expected rank-2 [re, im] pairs, got shape {shape}"


@pytest.mark.parametrize("data, message", [
    # rank-2 data; a list at level 0, 1 or 2 whose entries are ragged:
    # the message names the level of the entries
    ([[PAIR, PAIR], [PAIR]], _ragged(1)),
    ([[PAIR, PAIR], [PAIR, [1.0]]], _ragged(2)),
    ([[PAIR, PAIR], [PAIR, [1.0, [0.0]]]], _ragged(3)),
    # a number where a list belongs
    ([[PAIR, PAIR], 1.0], _ragged(1)),
    ([[PAIR, 1.0], [PAIR, PAIR]], _ragged(2)),
    (1.0, _shape(())),
    # pairs of length 1 and 3
    ([[[1.0], [1.0]], [[1.0], [1.0]]], _shape((2, 2, 1))),
    ([[PAIR + [0.0]] * 2] * 2, _shape((2, 2, 3))),
    # one level too deep, one too shallow
    ([[[PAIR], [PAIR]], [[PAIR], [PAIR]]], _shape((2, 2, 1, 2))),
    ([PAIR, PAIR], _shape((2, 2))),
    # leaves that are no numbers
    (_one_leaf({}), "complex array entries must be numbers, got ['dict']"),
    (_one_leaf([]), _ragged(3)),
    (_one_leaf(None), "complex array entries must be numbers, got ['NoneType']"),
    (_one_leaf("x"), "complex array entries must be numbers, got ['str']"),
    (_one_leaf(10 ** 400), "malformed complex array: int too large to convert to float"),
    # empty data
    ([], _shape((0,))),
    ([[], []], _shape((2, 0))),
], ids=("ragged_0", "ragged_1", "ragged_2", "number_for_row", "number_for_pair",
        "bare_number", "pairs_of_1", "pairs_of_3", "too_deep", "too_shallow",
        "dict", "list", "null", "string", "huge_int", "empty", "empty_rows"))
def test_decode_refusal_names_its_fault(data, message):
    with pytest.raises(InvariantError) as got:
        serialize._decode(data, 2)
    assert str(got.value) == message
    assert REFUSALS.fullmatch(message)


def test_plan_of_unstackable_protocols_refused():
    # one target at (3, 3) converted by build_conversion's protocol (3
    # outcomes) and by a hand-built one with 2: each verifies and so does
    # the plan, but its protocols do not share an outcome count, so
    # writing the plan is refused as simulating it is
    lam = np.array([0.7, 0.3])
    psi = PureState(SystemShape((3, 3)), np.diag(np.append(np.sqrt(lam), 0)).ravel())
    kraus = [np.diag([*np.sqrt(lam[[m % 2, (1 + m) % 2]]), 2 ** -0.5]) for m in (0, 1)]
    shifts = [np.eye(3)[:, [m % 2, (1 + m) % 2, 2]] for m in (0, 1)]
    hand = ConversionProtocol(target=psi, cut=((0,), (1,)), alice_kraus=kraus,
                              corrections=tuple((p, p) for p in shifts))
    plan = SynthesisPlan(Ensemble([0.5, 0.5], (psi, psi)),
                         (build_conversion(psi, ((0,), (1,))), hand), psi.density())
    for proto in plan.protocols:
        proto.verify()
    plan.verify()
    message = "protocols must share one shape, cut and outcome count"
    with pytest.raises(InvariantError, match=message):
        simulate_synthesis(plan, 10, 0)
    with pytest.raises(InvariantError, match=message):
        serialize.plan_to_dict(plan)


class TestPinnedBytes:
    """The exact bytes of a state file and a channel file."""

    STATE = '{"shape": [2], "kind": "pure", "data": [[0.6, 0.0], [-0.0, -0.8]]}'
    CHANNEL = ('{"dim": 2, "kraus": ['
               '[[[0.8366600265340756, 0.0], [0.0, 0.0]], '
               '[[0.0, 0.0], [0.8366600265340756, 0.0]]], '
               '[[[0.5477225575051661, 0.0], [0.0, 0.0]], '
               '[[0.0, 0.0], [0.0, 0.0]]], '
               '[[[0.0, 0.0], [0.0, 0.0]], '
               '[[0.0, 0.0], [0.5477225575051661, 0.0]]]]}')

    def test_state_file(self, tmp_path):
        path = tmp_path / "psi.json"
        psi = PureState(SystemShape((2,)), np.array([0.6, -0.8j]))
        serialize.save_state(psi, path)
        assert path.read_text() == self.STATE
        assert _same_bits(serialize.load_state(path).amplitudes, psi.amplitudes)

    def test_save_state_returns_its_document(self, tmp_path, rng):
        path = tmp_path / "s.json"
        for state in (ghz_state(), random_density(SystemShape((2, 3)), rng)):
            doc = serialize.save_state(state, path)
            assert doc == serialize.state_to_dict(state)
            assert path.read_text() == json.dumps(doc)

    def test_channel_file(self, tmp_path):
        path = tmp_path / "chan.json"
        c = dephasing_channel(2, 0.3)
        serialize.save_channel(c, path)
        assert path.read_text() == self.CHANNEL
        assert _same_bits(serialize.load_channel(path).kraus, c.kraus)


PURE_DATA = [[1.0, 0.0], [0.0, 0.0]]


class TestStrictDocuments:
    @pytest.mark.parametrize("shape", [[2.7], [2.0], ["2"], "2", [True, True],
                                       2, None, {"0": 2}])
    def test_state_shape_must_be_integers(self, shape):
        doc = {"shape": shape, "kind": "pure", "data": PURE_DATA}
        with pytest.raises(InvariantError):
            serialize.state_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        None, [], "state", {"kind": "pure", "data": PURE_DATA},
        {"shape": [2], "data": PURE_DATA}, {"shape": [2], "kind": "pure"}])
    def test_malformed_state_document(self, doc):
        with pytest.raises(InvariantError, match="^malformed state document"):
            serialize.state_from_dict(doc)

    @pytest.mark.parametrize("kind", ["mixed", "Pure", None, "PURE"])
    def test_unknown_state_kind(self, kind):
        # the accepted kinds are listed, and the value is given as read
        doc = {"shape": [2], "kind": kind, "data": PURE_DATA}
        with pytest.raises(InvariantError, match="^" + re.escape(
                f"state kind must be one of 'pure', 'density', got {kind!r}")):
            serialize.state_from_dict(doc)

    @pytest.mark.parametrize("doc", [None, [], "channel", {"dim": 2},
                                     {"kraus": [[[[1.0, 0.0]]]]}])
    def test_malformed_channel_document(self, doc):
        with pytest.raises(InvariantError, match="^malformed channel document"):
            serialize.channel_from_dict(doc)

    @pytest.mark.parametrize("dim", ["2", 2.0, 2.5, True, None, [2]])
    def test_channel_dim_must_be_an_integer(self, dim):
        doc = serialize.channel_to_dict(dephasing_channel(2, 0.3))
        doc["dim"] = dim
        with pytest.raises(InvariantError):
            serialize.channel_from_dict(doc)

    def test_numpy_integer_dim_round_trips(self, tmp_path):
        # a dim of np.int64(2) used to be stored as given, and json.dumps
        # raised TypeError on the channel's document
        path = tmp_path / "chan.json"
        for c in (LocalChannel(np.int64(2), np.eye(2)[None]),
                  random_local_channel(np.int64(2), 2, 1)):
            serialize.save_channel(c, path)
            back = serialize.load_channel(path)
            assert back.dim == 2
            assert _same_bits(back.kraus, c.kraus)

    @pytest.mark.parametrize("data", [
        [["x", 0.0], [0.0, 0.0]],
        [[None, 0.0], [0.0, 0.0]],
        [[10 ** 400, 0.0], [0.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[1.0, 0.0], [0.0]],
        [1.0, 0.0],
        [[[1.0, 0.0]], [[0.0, 0.0]]],
        [],
        5,
        None,
        "data",
    ])
    def test_malformed_numbers_raise_invariant_error(self, data):
        doc = {"shape": [2], "kind": "pure", "data": data}
        with pytest.raises(InvariantError):
            serialize.state_from_dict(doc)

    @pytest.mark.parametrize("data", [
        [["1.5", 0.0], [0.0, 0.0]],
        [["0.6", 0.0], [0.0, "-0.8"]],
        [[True, False], [False, False]],
        [[1.0, False], [0.0, 0.0]],
        [[1.5, True], [0.0, 0.0]],
    ], ids=("string", "strings_of_a_unit_vector", "booleans",
            "boolean_among_numbers", "number_and_boolean"))
    def test_strings_and_booleans_are_not_numbers(self, data):
        # numpy reads "1.5" as 1.5 and true as 1.0; the file formats hold
        # numbers only, so each of these fails even where the values would
        # make a valid state
        with pytest.raises(InvariantError, match="must be numbers"):
            serialize._decode(data, 1)
        with pytest.raises(InvariantError, match="must be numbers"):
            serialize.state_from_dict({"shape": [2], "kind": "pure", "data": data})

    @pytest.mark.parametrize("text", [b"\xff", b"[" * 100000 + b"]" * 100000,
                                      b"1" * 5000, b"{"],
                             ids=("not_utf8", "deep_nesting", "long_integer",
                                  "bad_syntax"))
    def test_file_not_json_names_the_file(self, tmp_path, text):
        f = tmp_path / "bad.json"
        f.write_bytes(text)
        for load in (serialize.load_state, serialize.load_channel):
            with pytest.raises(InvariantError, match="bad.json is not a JSON"):
                load(f)

    def test_completeness_checked_at_construction_tolerance(self):
        # error 1e-8: inside the old loader's 1e-7, outside LocalChannel's 1e-9
        doc = serialize.channel_to_dict(LocalChannel(2, np.eye(2)[None]))
        doc["kraus"][0][0][0][0] = float(np.sqrt(1 + 1e-8))
        with pytest.raises(InvariantError, match="sum to the identity"):
            serialize.channel_from_dict(doc)
