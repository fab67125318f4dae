from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropsplit import rng
from dropsplit.rng import LaneDraws, Xoshiro256StarStar, check_seed, derive_seed, splitmix64, xoshiro_words

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
    assert next(xoshiro_words(1, 2, 3, 4)) == 11520


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


def test_shuffle_frozen_seed42():
    # Approach A's partition is this shuffle; a change here moves every A split.
    items = list(range(10))
    Xoshiro256StarStar(42).shuffle(items)
    assert items == [0, 3, 9, 2, 4, 7, 8, 5, 6, 1]


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
        LaneDraws([1, -1])


def test_scalar_stream_rejects_seed_outside_64_bits():
    """A seed outside [0, 2**64) would alias another seed's stream."""
    Xoshiro256StarStar(2**64 - 1).next_u64()
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must lie"):
            Xoshiro256StarStar(bad)


# --- lanes against the scalar reference ---------------------------------------
#
# The derived draws as the scalar class first defined them; the
# `Xoshiro256StarStar` methods inline or restructure some of them, and must
# give the same values.


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
        # k indices, then one uniform each: the draws of an extra-trees split.
        picks = reference_sample_indices(gen, *args)
        return picks, [gen.random() for _ in picks]
    return getattr(gen, name)(*args)


def by_stream(gen, op):
    name, *args = op
    if name == "words":
        return [gen.next_u64() for _ in range(args[0])]
    if name == "shuffle":
        items = list(range(args[0]))
        gen.shuffle(items)
        return items
    if name == "sample_indices":
        picks = gen.sample_indices(*args)
        return picks, [gen.random() for _ in picks]
    return getattr(gen, name)(*args)


class OneLane:
    """Lane i of a `LaneDraws`, drawn one call at a time."""

    def __init__(self, draws, i):
        self.draws, self.lane = draws, np.array([i])

    def next_u64(self):
        return int(self.draws._take(self.lane, 1)[0, 0])


def by_lane(lane, op):
    draws, i = lane.draws, lane.lane
    name, *args = op
    if name == "words":
        return draws._take(i, args[0])[0].tolist()
    if name == "randbelow" and args[0] > 2**63:
        return reference_randbelow(lane, *args)  # past LaneDraws.randbelow's range
    if name == "shuffle":
        items = list(range(args[0]))
        for j in range(len(items) - 1, 0, -1):
            r = int(draws.randbelow(i, j + 1)[0])
            items[j], items[r] = items[r], items[j]
        return items
    if name == "sample_indices":
        n, k = args
        picks, u = draws.sample(i, np.arange(max(n, 1))[None, :].copy(), np.array([n]), np.array([k]))
        return picks[0, :k].tolist(), u[0, :k].tolist()
    return getattr(draws, name)(i, *args)[0]


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
    how=st.sampled_from(["lanes", "stream"]),
    block=st.sampled_from([1, 3, 16, rng._BLOCK]),
)
def test_lanes_match_scalar_reference(seeds, schedule, how, block):
    """Every lane gives the scalar stream of its seed, draw for draw.

    Lanes read in an interleaved schedule, so they run dry and refill at
    different times; small blocks make that happen within a few draws.
    """
    with mock.patch.object(rng, "_BLOCK", block):
        if how == "stream":
            lanes, draw = [Xoshiro256StarStar(seed) for seed in seeds], by_stream
        else:
            draws = LaneDraws(seeds)
            lanes, draw = [OneLane(draws, i) for i in range(len(seeds))], by_lane
        scalars = [Xoshiro256StarStar(seed) for seed in seeds]
        for which, op in schedule:
            i = which % len(seeds)
            assert draw(lanes[i], op) == by_reference(scalars[i], op)
        # The lanes end where their scalar streams end.
        for lane, scalar in zip(lanes, scalars):
            assert [lane.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


def test_lanes_cover_the_golden_streams():
    draws = LaneDraws([0, 42])
    assert draws._take(np.array([0]), 4)[0].tolist() == GOLDEN_SEED0
    assert draws._take(np.array([1]), 4)[0].tolist() == GOLDEN_SEED42
    draws = LaneDraws([42, 0])
    words = [draws._take(np.array([1, 0]), 2) for _ in range(2)]
    assert np.hstack(words).tolist() == [GOLDEN_SEED0, GOLDEN_SEED42]
    single = Xoshiro256StarStar(42)
    assert [single.next_u64() for _ in range(4)] == GOLDEN_SEED42


BOUNDS = st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 9, 120, 2**62 + 1, 2**63]))


@st.composite
def lane_calls(draw):
    """One `LaneDraws` call: its method, its arguments, and the lanes it draws for.

    ``randbelow_each`` and ``sample`` take one bound, or one (n, k), per lane
    of the six; a call uses those of the lanes it draws for.
    """
    kind = draw(st.sampled_from(["random", "randbelow", "randbelow_each", "sample", "normal"]))
    if kind == "randbelow":
        args = (draw(BOUNDS),)
    elif kind == "randbelow_each":
        args = (draw(st.lists(BOUNDS, min_size=6, max_size=6)),)
    elif kind == "sample":
        ns = draw(st.lists(st.integers(0, 12), min_size=6, max_size=6))
        args = (ns, [draw(st.integers(0, n)) for n in ns])
    elif kind == "normal":
        # A standard normal shows every bit of z; a large mean or std 0 hides the last ones.
        args = draw(st.one_of(st.just((0.0, 1.0)), st.tuples(st.floats(-5, 5), st.floats(0, 3))))
    else:
        args = ()
    return kind, args, draw(st.permutations(range(6)).flatmap(lambda p: st.integers(0, 6).map(lambda k: p[:k])))


def lane_call(draws, kind, args, lanes):
    """Make one generated call on `draws`, as a list of per-lane values."""
    at = np.array(lanes, dtype=np.intp)
    if kind == "randbelow_each":
        return draws.randbelow(at, np.array([args[0][i] for i in lanes], dtype=np.uint64)).tolist()
    if kind == "sample":
        n = np.array([args[0][i] for i in lanes], dtype=np.int64)
        k = np.array([args[1][i] for i in lanes], dtype=np.int64)
        picks, u = draws.sample(at, np.tile(np.arange(13), (len(lanes), 1)), n, k)
        return [(p[:c], v[:c]) for p, v, c in zip(picks.tolist(), u.tolist(), k.tolist())]
    return getattr(draws, kind)(at, *args).tolist()


def lane_reference(gen, kind, args, i):
    if kind == "randbelow_each":
        return reference_randbelow(gen, args[0][i])
    if kind == "sample":
        return by_reference(gen, ("sample_indices", args[0][i], args[1][i]))
    return by_reference(gen, (kind, *args))


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(SEEDS, min_size=6, max_size=6),
    calls=st.lists(
        st.one_of(
            lane_calls(),
            st.lists(st.integers(0, 5), unique=True).map(lambda gone: ("release", gone)),
        ),
        max_size=30,
    ),
    block=st.sampled_from([1, 3, 16, rng._BLOCK]),
)
def test_lane_draws_match_scalar_reference(seeds, calls, block):
    """Each lane of a call gets the `Xoshiro256StarStar` value of its stream, call for call.

    Calls name lanes in any order and leave some out, so lanes read at
    different rates and a refill keeps words that some lanes have not read;
    `release` lets lanes go between calls, which then draw no more.
    """
    with mock.patch.object(rng, "_BLOCK", block):
        draws = LaneDraws(seeds)
        scalars = [Xoshiro256StarStar(seed) for seed in seeds]
        released: set[int] = set()
        for kind, args, *lanes in calls:
            if kind == "release":
                gone = [i for i in args if i < len(scalars)]
                draws.release(np.array(gone, dtype=np.intp))
                released.update(gone)
                continue
            lanes = [i for i in lanes[0] if i < len(scalars) and i not in released]
            got = lane_call(draws, kind, args, lanes)
            want = [lane_reference(scalars[i], kind, args, i) for i in lanes]
            assert [repr(v) for v in got] == [repr(v) for v in want]
        # Every lane still drawing ends where its scalar stream ends.
        assert len(draws) == len(scalars)
        live = [i for i in range(len(scalars)) if i not in released]
        assert draws._take(np.array(live, dtype=np.intp), 3).tolist() == [[scalars[i].next_u64() for _ in range(3)] for i in live]


def test_refill_drops_released_lanes_and_keeps_lane_numbers():
    # After lanes 1 and 3 are let go, the next refill steps and holds only
    # the four live lanes, which still read their own streams by their own
    # numbers.
    seeds = [derive_seed(9, i) for i in range(6)]
    with mock.patch.object(rng, "_BLOCK", 4):
        draws = LaneDraws(seeds)
        scalars = [Xoshiro256StarStar(seed) for seed in seeds]
        draws._take(np.arange(6), 3)
        draws.release(np.array([1, 3]))
        live = np.array([5, 0, 4, 2])
        got = draws._take(live, 6)
        assert draws._words.shape[0] == draws._s.shape[1] == 4
        assert len(draws) == 6
        want = [[gen.next_u64() for _ in range(9)][3:] for gen in scalars]
        assert got.tolist() == [want[i] for i in live.tolist()]


@pytest.mark.parametrize("block", [1, 3, rng._BLOCK])
def test_lane_randbelow_with_a_bound_per_lane(block):
    # n = 1 draws no word; 9 rejects 7 words in 16, and 2**62 + 1 almost 1 in 2.
    bounds = [1, 9, 2, 1, 9, 300, 2**63, 2**62 + 1, 9, 1]
    seeds = [derive_seed(3, i) for i in range(len(bounds))]
    with mock.patch.object(rng, "_BLOCK", block):
        draws = LaneDraws(seeds)
        scalars = [Xoshiro256StarStar(seed) for seed in seeds]
        lanes = np.arange(len(seeds))
        for _ in range(40):
            got = draws.randbelow(lanes, np.array(bounds, dtype=np.uint64)).tolist()
            assert got == [gen.randbelow(n) for gen, n in zip(scalars, bounds)]
        assert draws._take(lanes, 1)[:, 0].tolist() == [gen.next_u64() for gen in scalars]


@pytest.mark.parametrize("block", [1, 3, rng._BLOCK])
def test_lane_fisher_yates_matches_sample_indices(block):
    # Each lane picks k of n from its own row of the pool, then draws k uniforms;
    # n = k, k = 0 and n = 1 include picks and lanes that read no word.
    cases = [(9, 3), (9, 9), (2, 2), (1, 1), (5, 0), (0, 0), (12, 7), (3, 1)]
    seeds = [derive_seed(11, i) for i in range(len(cases))]
    with mock.patch.object(rng, "_BLOCK", block):
        draws = LaneDraws(seeds)
        scalars = [Xoshiro256StarStar(seed) for seed in seeds]
        n, k = (np.array(c, dtype=np.int64) for c in zip(*cases))
        for _ in range(20):
            pool = np.tile(np.arange(100, 112), (len(cases), 1))
            picks, u = draws.sample(np.arange(len(cases)), pool, n, k)
            for row, (gen, (ni, ki)) in enumerate(zip(scalars, cases)):
                assert picks[row, :ki].tolist() == [100 + p for p in gen.sample_indices(ni, ki)]
                assert u[row, :ki].tolist() == [gen.random() for _ in range(ki)]


def test_lane_randbelow_rejects_n_outside_its_range():
    draws = LaneDraws([1, 2])
    for bad in (0, -3, 2**63 + 1):
        with pytest.raises(ValueError, match="randbelow needs"):
            draws.randbelow(np.array([0, 1]), bad)
    assert draws.randbelow(np.array([1]), 1).tolist() == [0]
    assert draws._take(np.array([0, 1]), 1).tolist() == [[Xoshiro256StarStar(1).next_u64()], [Xoshiro256StarStar(2).next_u64()]]


def test_lane_normals_match_scalar_bit_for_bit():
    # numpy's log differs from math.log in the last ulp on about 0.4% of
    # values on some hosts; enough standard normals show any such drift.
    seeds = [derive_seed(5, i) for i in range(3000)]
    draws = LaneDraws(seeds)
    lanes = np.arange(len(seeds))
    got = np.stack([draws.normal(lanes) for _ in range(3)], axis=1).tolist()
    want = [[gen.normal() for _ in range(3)] for gen in map(Xoshiro256StarStar, seeds)]
    assert [list(map(repr, row)) for row in got] == [list(map(repr, row)) for row in want]
