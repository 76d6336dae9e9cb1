import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguesched import SplitMix64, decode, mix64
from leaguesched.rng import _GAMMA, _MULT1, _MULT2, MASK64

# First three SplitMix64 outputs for seed 0, as published for the reference
# implementation (also used as seeding vectors by the xoshiro family).
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def reference_outputs(state, k):
    """The reference stream in Python ints: the t-th output from state is mix64((state + t * gamma) mod 2**64)."""
    return [mix64((state + t * _GAMMA) & MASK64) for t in range(1, k + 1)]


def reference_uniforms(state, k):
    """The reference uniforms: each output / 2**64, one correctly rounded Python division."""
    return [output / 2**64 for output in reference_outputs(state, k)]


def test_reference_stream_for_seed_zero():
    assert reference_outputs(0, 3) == SEED0_OUTPUTS
    assert SplitMix64(0).uniforms(3).tolist() == [output / 2**64 for output in SEED0_OUTPUTS]


def test_mix64_is_the_stream_finalizer():
    # The first output of seed 0 is the finalizer applied to the increment.
    assert mix64(0x9E3779B97F4A7C15) == SEED0_OUTPUTS[0]


def test_equal_seeds_give_equal_streams():
    a, b = SplitMix64(123456789), SplitMix64(123456789)
    assert a.uniforms(50).tobytes() == b.uniforms(50).tobytes()


def test_seed_is_masked_to_64_bits():
    a, b = SplitMix64(5), SplitMix64(2**64 + 5)
    assert a.state == b.state == 5
    assert a.uniforms(3).tolist() == b.uniforms(3).tolist() == reference_uniforms(5, 3)


def test_numpy_seeds_give_the_int_stream_and_floats_are_refused():
    for seed in (np.uint64(2**64 - 3), np.int64(5)):
        a, b = SplitMix64(seed), SplitMix64(int(seed))
        assert type(a.state) is int and a.uniforms(4).tolist() == b.uniforms(4).tolist()
        assert mix64(seed) == mix64(int(seed))
    for bad in (SplitMix64, mix64):
        with pytest.raises(TypeError):
            bad(5.0)


def test_uniform_in_unit_interval():
    gen = SplitMix64(7)
    for _ in range(1000):
        u = gen.uniform()
        assert 0.0 <= u < 1.0


def test_uniforms_block_matches_sequential_draws():
    for k in (1, 2, 7, 64, 1000, 2047, 2048, 5000):
        got = SplitMix64(k).uniforms(k)
        assert got.dtype == np.float64
        assert got.tolist() == reference_uniforms(k, k)


def test_uniform_is_the_one_draw_read():
    gen = SplitMix64(2024)
    assert [gen.uniform() for _ in range(2000)] == reference_uniforms(2024, 2000)
    assert type(SplitMix64(0).uniform()) is float and gen.state == (2024 + 2000 * _GAMMA) & MASK64


def test_uniforms_advances_state_like_sequential():
    seq = SplitMix64(42)
    blk = SplitMix64(42)
    for _ in range(10):
        seq.uniform()
    blk.uniforms(10)
    assert seq.uniform() == blk.uniform()


def test_uniforms_takes_any_integer_count_and_refuses_the_rest():
    assert SplitMix64(5).uniforms(np.int64(3)).tolist() == SplitMix64(5).uniforms(3).tolist()
    gen = SplitMix64(5)
    assert gen.uniforms(0).shape == (0,) and gen.state == 5  # an all-swap week draws an empty span
    with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got -1$"):
        gen.uniforms(-1)
    with pytest.raises(TypeError):
        gen.uniforms(2.5)
    assert gen.state == 5  # a refused k draws nothing


def test_peek_takes_any_integer_offset():
    gen = SplitMix64(5)
    for t in (3, np.int64(3), np.uint8(3), np.array(3)):
        got = gen.peek(t)
        assert type(got) is np.ndarray and got.shape == (1,) and got[0] == SplitMix64(5).uniforms(3)[2]
    assert gen.state == 5


@pytest.mark.parametrize("t", [0, -1])
def test_peek_refuses_offsets_below_one(t):
    # peek(0) would read the draw already made, peek(-1) the one before it.
    gen = SplitMix64(5)
    with pytest.raises(ValueError, match=rf"^t must be an integer >= 1, got {t}$"):
        gen.peek(t)
    assert gen.state == 5


def test_peek_reads_an_array_of_offsets_and_skip_moves_past_draws():
    gen = SplitMix64(5)
    assert gen.peek(np.array([3]))[0] == SplitMix64(5).uniforms(3)[2]
    offsets = np.array([[4, 1], [2, 9]])
    assert gen.peek(offsets).tolist() == SplitMix64(5).uniforms(9)[offsets - 1].tolist()
    assert gen.peek(np.array([], dtype=np.int64)).shape == (0,) and gen.state == 5
    drawn = SplitMix64(5)
    drawn.uniforms(7)
    gen.skip(np.int64(7))
    assert gen.state == drawn.state
    with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got -1$"):
        gen.skip(-1)
    assert gen.state == drawn.state


@pytest.mark.parametrize("t, error, message", [
    (np.array([3, 0, 2]), ValueError, r"^t must be an integer >= 1, got 0$"),
    (np.array([[1], [-4]]), ValueError, r"^t must be an integer >= 1, got -4$"),
    (np.array([1.0, 2.0]), TypeError, r"^t must be an integer or an integer array, got float64$"),
    (np.array([True, True]), TypeError, r"^t must be an integer or an integer array, got bool$"),
    (2.0, TypeError, r"^t must be an integer or an integer array, got float64$"),
])
def test_peek_refuses_an_array_with_an_offset_below_one_or_not_of_integers(t, error, message):
    gen = SplitMix64(5)
    with pytest.raises(error, match=message):
        gen.peek(t)
    assert gen.state == 5


def _plain_uniforms(state, k):
    """The block the plain cast gives: the finalizer on state + gamma * [1..k], cast as uint64."""
    z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(state)
    for shift, mult in ((30, _MULT1), (27, _MULT2)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    z ^= z >> np.uint64(31)
    return z.astype(np.float64) / 2**64


# Words around the float64 rounding boundaries: exact below 2**53, ties to even at
# 2**63 + 2**10 (down) and 2**63 + 3 * 2**10 (up), and the top words that round to 2**64.
EDGE_WORDS = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**63 + 2**10, 2**63 + 3 * 2**10,
              2**64 - 2**10 - 1, 2**64 - 2**10, 2**64 - 1]


def test_edge_words_read_as_their_correctly_rounded_uniforms():
    # Each word is read alone, as the last draw of a 2,048-draw block and one draw ahead, and must read as
    # Python's correctly rounded word / 2**64.
    expected = np.array([word / 2**64 for word in EDGE_WORDS])
    reads = {"alone": [], "last_of_a_block": [], "peeked": []}
    for word in EDGE_WORDS:
        seed = _seed_for_next_output(word)
        assert reference_outputs(seed, 1) == [word]
        reads["alone"].append(SplitMix64(seed).uniforms(1))
        reads["last_of_a_block"].append(SplitMix64((seed - 2047 * _GAMMA) & MASK64).uniforms(2048)[-1:])
        reads["peeked"].append(SplitMix64(seed).peek([1]))
    for got in map(np.concatenate, reads.values()):
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        assert got[-3] < 1.0 and got[-2] == got[-1] == 1.0
        assert got[6] == 0.5 and got[7] == 0.5 + 2**-52  # the two ties, rounded to even


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, MASK64),
    st.one_of(st.integers(0, 2048 + 8), st.integers(2048 - 8, 40_000)),
)
def test_uniforms_equals_the_plain_cast_on_short_and_long_blocks(state, k):
    gen = SplitMix64(state)
    got = gen.uniforms(k)
    assert got.tobytes() == _plain_uniforms(state, k).tobytes()
    assert gen.state == (state + k * _GAMMA) & MASK64


def _unshift(y, s):
    """Inverse of y = x ^ (x >> s) on 64-bit words."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def _seed_for_next_output(output):
    """The seed whose first output is `output`: the finalizer run backwards."""
    z = _unshift(output, 31)
    z = _unshift(z * pow(_MULT2, -1, 2**64) & MASK64, 27)
    z = _unshift(z * pow(_MULT1, -1, 2**64) & MASK64, 30)
    return (z - _GAMMA) & MASK64


def test_top_outputs_round_to_exactly_one_and_decoding_clamps_them():
    # float64 cannot hold 2**64 - 1; every output >= 2**64 - 2**10 rounds up to 2**64.
    for output in (2**64 - 1, 2**64 - 2**10):
        seed = _seed_for_next_output(output)
        assert reference_outputs(seed, 1) == [output]
        assert SplitMix64(seed).uniform() == 1.0
        assert SplitMix64(seed).uniforms(1)[0] == 1.0
        assert SplitMix64(seed).uniforms(2048)[0] == 1.0  # at any block length, the one cast rounds it up
        assert decode(SplitMix64(seed).uniforms(1) * 3, 3).vm_of == (2,)
    assert SplitMix64(_seed_for_next_output(2**64 - 2**10 - 1)).uniform() < 1.0
