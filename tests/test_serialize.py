"""The JSON file formats: exact bytes, bit-exact round trips and strict
validation of the numbers, shapes and dims a document carries."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lcstates import (ConversionProtocol, DensityMatrix, InvariantError,
                      LocalChannel, PureState, SystemShape, dephasing_channel)
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
@given(st.integers(1, 3), SEEDS, st.data())
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

    @pytest.mark.parametrize("dim", ["2", 2.0, 2.5, True, None, [2]])
    def test_channel_dim_must_be_an_integer(self, dim):
        doc = serialize.channel_to_dict(dephasing_channel(2, 0.3))
        doc["dim"] = dim
        with pytest.raises(InvariantError):
            serialize.channel_from_dict(doc)

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

    def test_completeness_checked_at_construction_tolerance(self):
        # error 1e-8: inside the old loader's 1e-7, outside LocalChannel's 1e-9
        doc = serialize.channel_to_dict(LocalChannel(2, np.eye(2)[None]))
        doc["kraus"][0][0][0][0] = float(np.sqrt(1 + 1e-8))
        with pytest.raises(InvariantError, match="sum to the identity"):
            serialize.channel_from_dict(doc)
