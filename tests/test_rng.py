from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dropsplit import rng
from dropsplit.rng import Xoshiro256StarStar, XoshiroLanes, check_seed, derive_seed, splitmix64, stream

# Frozen first outputs for seed 0 and seed 42; any change to the stream
# definition breaks every recorded manifest, so these must never move.
GOLDEN_SEED0 = [
    11091344671253066420,
    13793997310169335082,
    1900383378846508768,
    7684712102626143532,
]
GOLDEN_SEED42 = [
    1546998764402558742,
    6990951692964543102,
    12544586762248559009,
    17057574109182124193,
]


def test_splitmix64_published_vectors():
    # First two outputs for seed 0, as published with the reference code.
    state, out = splitmix64(0)
    assert out == 0xE220A8397B1DCDAF
    _, out2 = splitmix64(state)
    assert out2 == 0x6E789E6AA1B965F4


def test_scrambler_matches_hand_computation():
    # From state (1, 2, 3, 4): output = rotl64(2*5, 7) * 9 = 1280 * 9.
    gen = Xoshiro256StarStar(0)
    gen._s = [1, 2, 3, 4]
    assert gen.next_u64() == 11520


def test_stream_frozen_seed0():
    gen = Xoshiro256StarStar(0)
    assert [gen.next_u64() for _ in range(4)] == GOLDEN_SEED0


def test_stream_frozen_seed42():
    gen = Xoshiro256StarStar(42)
    assert [gen.next_u64() for _ in range(4)] == GOLDEN_SEED42


def test_outputs_are_64_bit():
    gen = Xoshiro256StarStar(7)
    for _ in range(1000):
        v = gen.next_u64()
        assert 0 <= v < 2**64


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(123)
    b = Xoshiro256StarStar(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_random_unit_interval():
    gen = Xoshiro256StarStar(5)
    values = [gen.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.45 < sum(values) / len(values) < 0.55


def test_randbelow_bounds_and_coverage():
    gen = Xoshiro256StarStar(9)
    counts = Counter(gen.randbelow(6) for _ in range(6000))
    assert set(counts) == set(range(6))
    assert all(800 < counts[v] < 1200 for v in range(6))


def test_shuffle_is_permutation():
    gen = Xoshiro256StarStar(11)
    items = list(range(20))
    shuffled = items[:]
    gen.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # 1/20! chance of false alarm


def test_normal_moments():
    gen = Xoshiro256StarStar(13)
    values = [gen.normal() for _ in range(5000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1


def test_sample_indices_distinct():
    gen = Xoshiro256StarStar(17)
    for _ in range(100):
        picked = gen.sample_indices(10, 4)
        assert len(set(picked)) == 4
        assert all(0 <= p < 10 for p in picked)


def test_derive_seed_varies_with_path():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


def test_splitmix64_step_is_pure():
    assert splitmix64(0) == splitmix64(0)
    state1, out1 = splitmix64(0)
    state2, out2 = splitmix64(state1)
    assert (state1, out1) != (state2, out2)


def test_check_seed_accepts_exactly_64_bit_seeds():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            check_seed(bad)
    with pytest.raises(ValueError, match="seed must lie"):
        XoshiroLanes([1, -1])


# --- lanes against the scalar reference ---------------------------------------
#
# The derived draws as the scalar class first defined them; the shared `Draws`
# methods inline or restructure some of them, and must give the same values.


def reference_randbelow(gen, n: int) -> int:
    nbits = (n - 1).bit_length()
    while True:
        r = gen.next_u64() >> (64 - nbits) if nbits else 0
        if r < n:
            return r


def reference_shuffle(gen, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = reference_randbelow(gen, i + 1)
        items[i], items[j] = items[j], items[i]


def reference_sample_indices(gen, n: int, k: int) -> list[int]:
    pool = list(range(n))
    out = []
    for i in range(k):
        j = i + reference_randbelow(gen, n - i)
        pool[i], pool[j] = pool[j], pool[i]
        out.append(pool[i])
    return out


def by_reference(gen, op):
    name, *args = op
    if name == "words":
        return [gen.next_u64() for _ in range(args[0])]
    if name == "randbelow":
        return reference_randbelow(gen, *args)
    if name == "shuffle":
        items = list(range(args[0]))
        reference_shuffle(gen, items)
        return items
    if name == "sample_indices":
        return reference_sample_indices(gen, *args)
    return getattr(gen, name)(*args)


def by_lane(gen, op):
    name, *args = op
    if name == "words":
        return [gen.next_u64() for _ in range(args[0])]
    if name == "shuffle":
        items = list(range(args[0]))
        gen.shuffle(items)
        return items
    return getattr(gen, name)(*args)


@st.composite
def draw_ops(draw):
    kind = draw(st.sampled_from(["words", "random", "randbelow", "normal", "shuffle", "sample_indices"]))
    if kind == "words":
        return ("words", draw(st.integers(0, 600)))
    if kind == "random":
        return ("random",)
    if kind == "randbelow":
        return ("randbelow", draw(st.one_of(st.integers(1, 300), st.integers(1, 2**64))))
    if kind == "normal":
        return ("normal", draw(st.floats(-5, 5)), draw(st.floats(0, 3)))
    if kind == "shuffle":
        return ("shuffle", draw(st.integers(0, 400)))
    n = draw(st.integers(0, 60))
    return ("sample_indices", n, draw(st.integers(0, n)))


SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(SEEDS, min_size=1, max_size=6),
    schedule=st.lists(st.tuples(st.integers(0, 5), draw_ops()), max_size=40),
    how=st.sampled_from(["streams", "streams_apart", "stream"]),
    block=st.sampled_from([1, 3, 16, rng._BLOCK]),
)
def test_lanes_match_scalar_reference(seeds, schedule, how, block):
    """Every lane gives the scalar stream of its seed, draw for draw.

    Lanes read in an interleaved schedule, so they run dry, refill or go on
    alone at different times; small blocks make that happen within a few draws.
    """
    with mock.patch.object(rng, "_BLOCK", block):
        if how == "stream":
            lanes = [stream(seed) for seed in seeds]
        else:
            lanes = getattr(XoshiroLanes(seeds), how)()
        scalars = [Xoshiro256StarStar(seed) for seed in seeds]
        for which, op in schedule:
            i = which % len(seeds)
            assert by_lane(lanes[i], op) == by_reference(scalars[i], op)
        # The lanes end where their scalar streams end.
        for lane, scalar in zip(lanes, scalars):
            assert [lane.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


def test_lanes_cover_the_golden_streams():
    lanes = XoshiroLanes([0, 42]).streams()
    assert [lanes[0].next_u64() for _ in range(4)] == GOLDEN_SEED0
    assert [lanes[1].next_u64() for _ in range(4)] == GOLDEN_SEED42
    apart = XoshiroLanes([42, 0]).streams_apart()
    assert [apart[1].next_u64() for _ in range(4)] == GOLDEN_SEED0
    single = stream(42)
    assert [single.next_u64() for _ in range(4)] == GOLDEN_SEED42
