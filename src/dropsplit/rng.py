"""Portable seeded random number generation.

Implements splitmix64 and xoshiro256** with pure 64-bit integer arithmetic so
that any run is reproducible from its manifest seed, on any platform, and so
that a reimplementation in another language can match partitions bit for bit.

Stream definition: a 64-bit seed is expanded into the four xoshiro256** state
words by four successive splitmix64 draws. Floats come from the top 53 bits of
an output word; bounded integers use rejection sampling; shuffles are
descending Fisher-Yates.

`Xoshiro256StarStar` is the reference: one stream, stepped one word at a time.
`stream` steps one stream in a generator with its state in locals.
`XoshiroLanes` steps many streams together: its uint64 state holds the four
words of every lane, and each step is a few numpy operations over all lanes
at once (numpy's uint64 multiply wraps mod 2^64, as the masks here do),
``_BLOCK`` steps per pass. Every lane yields the words of the scalar stream
of its seed. The draws derived from the words (`random`, `randbelow`,
`normal`, `shuffle`, `sample_indices`) are written once for one stream at a
time, in `Draws`, so they are the same whichever way a stream is stepped.
`LaneDraws` makes `random`, `randbelow` and `normal` for many lanes in one
call, as arrays, each lane reading its own words from its own position; it
keeps the operations of `Draws` value for value.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB

# Words drawn per lane in one numpy pass: each pass takes nine numpy
# operations per word position whatever the lane count.
_BLOCK = 256

# 2**-53: scales the top 53 bits of a word into [0, 1).
_UNIT = 1.0 / (1 << 53)


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & _MASK
    return state, z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Derive an independent child seed from a master seed and index path."""
    state = master & _MASK
    for idx in indices:
        state, out = splitmix64(state ^ (idx & _MASK))
        state = out
    state, out = splitmix64(state)
    return out


def check_seed(seed: int) -> int:
    """Return `seed` if it lies in [0, 2**64), else raise ValueError.

    The streams take seeds mod 2**64, so a seed outside would silently draw
    the stream of another seed.
    """
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Draws:
    """The derived draws, over any source of 64-bit words named ``next_u64``."""

    __slots__ = ()

    def next_u64(self) -> int:
        raise NotImplementedError

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _UNIT

    def randbelow(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        nbits = (n - 1).bit_length()
        if not nbits:
            return 0
        shift = 64 - nbits
        while True:
            r = self.next_u64() >> shift
            if r < n:
                return r

    def shuffle(self, items: list) -> None:
        """In-place descending Fisher-Yates shuffle."""
        next_u64 = self.next_u64
        for i in range(len(items) - 1, 0, -1):
            shift = 64 - i.bit_length()  # randbelow(i + 1), inlined
            j = next_u64() >> shift
            while j > i:
                j = next_u64() >> shift
            items[i], items[j] = items[j], items[i]

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian deviate via Box-Muller; draws two uniforms per call."""
        u1 = 1.0 - self.random()  # (0, 1], keeps log finite
        u2 = self.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + std * z

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order given by the draw sequence.

        A partial Fisher-Yates over range(n): pick i swaps positions i and
        i + randbelow(n - i). Only swapped positions are stored, so a call
        costs O(k), not O(n).
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        next_u64 = self.next_u64
        moved: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i
            if n - i > 1:  # j += randbelow(n - i), inlined
                shift = 64 - (n - i - 1).bit_length()
                r = next_u64() >> shift
                while r >= n - i:
                    r = next_u64() >> shift
                j += r
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return out


class Xoshiro256StarStar(Draws):
    """xoshiro256** seeded via splitmix64 expansion of one 64-bit seed."""

    def __init__(self, seed: int) -> None:
        state = seed & _MASK
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result


def xoshiro_words(s0: int, s1: int, s2: int, s3: int) -> Iterator[int]:
    """The xoshiro256** output words from state (s0, s1, s2, s3), endlessly.

    The same recurrence as `Xoshiro256StarStar.next_u64`, with the state in
    locals and the rotations inlined, for a single stream that draws many words.
    """
    mask = _MASK
    while True:
        r = s1 * 5 & mask
        yield ((r << 7 | r >> 57) & mask) * 9 & mask
        t = s1 << 17 & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45 | s3 >> 19) & mask


class Stream(Draws):
    """The derived draws over an iterator of 64-bit words."""

    __slots__ = ("next_u64",)

    def __init__(self, words: Iterator[int]) -> None:
        self.next_u64 = words.__next__


def stream(seed: int) -> Stream:
    """The `Xoshiro256StarStar` stream of `seed`, stepped by `xoshiro_words`."""
    return Stream(xoshiro_words(*Xoshiro256StarStar(seed)._s))


def _splitmix64_lanes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`splitmix64` over a uint64 array, one step per element."""
    state = state + np.uint64(_SPLITMIX_GAMMA)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(_SPLITMIX_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MUL2)
    return state, z ^ (z >> np.uint64(31))


class XoshiroLanes:
    """Many xoshiro256** streams, one lane each, stepped together in numpy.

    Lane i gives the words of ``Xoshiro256StarStar(seeds[i])``. The state is
    a ``(4, lanes)`` uint64 array, one row per state word, so each operation
    of a step runs over all lanes in contiguous memory.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        state = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
        s = np.empty((4, len(state)), dtype=np.uint64)
        for w in range(4):
            state, s[w] = _splitmix64_lanes(state)
        self._s = s

    def __len__(self) -> int:
        return self._s.shape[1]

    def _draw(self) -> np.ndarray:
        """The next ``_BLOCK`` words of every lane: a ``(lanes, _BLOCK)`` uint64 array."""
        s = self._s
        s0, s1, s2, s3 = s
        low, high = s[:2], s[2:]
        out = np.empty((_BLOCK, len(self)), dtype=np.uint64)
        t = np.empty_like(s0)
        # 0-d arrays: numpy takes them faster than scalars.
        k17, k45, k19 = (np.array(k, dtype=np.uint64) for k in (17, 45, 19))
        # Step the state, keeping each step's s1; the output scrambler
        # rotl(s1 * 5, 7) * 9 then runs once over the whole block.
        for row in out:
            np.copyto(row, s1)
            np.left_shift(s1, k17, out=t)
            high ^= low  # s2 ^= s0, s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            np.left_shift(s3, k45, out=t)
            np.right_shift(s3, k19, out=s3)
            s3 |= t
        out *= np.uint64(5)
        np.bitwise_or(out << np.uint64(7), out >> np.uint64(57), out=out)  # rotl(out, 7)
        out *= np.uint64(9)
        return out.T

    def streams(self) -> list[Stream]:
        """One stream per lane, in lockstep; take them once per `XoshiroLanes`.

        The first stream to run dry draws the next block for every lane; the
        others keep those words until they read them. Suits streams that draw
        at similar rates side by side. A pass costs about the same for one
        lane as for thirty, so this beats refilling only the dry lane even
        though unread words are drawn. Over the 11 forest fits of one README
        grid (30 trees each, on a 2-core host), lockstep took 110 passes and
        0.19 s to draw 844,800 words, of which 524,595 were read, and the
        fits took 2.9 s; one lane at a time took 2,213 passes and 5.3 s, and
        the fits 8.3 s.
        """
        pending: list[list[int]] = [[] for _ in range(len(self))]

        def lane(i: int) -> Iterator[int]:
            while True:
                if not pending[i]:
                    for words, block in zip(pending, self._draw().tolist()):
                        words += block
                words, pending[i] = pending[i], []
                yield from words

        return [Stream(lane(i)) for i in range(len(self))]


class LaneDraws:
    """`random`, `randbelow` and `normal` for many streams in one call, as arrays.

    Lane i reads the words of ``Xoshiro256StarStar(seeds[i])``. Each call
    draws once for each lane of an index array (no lane twice), and each lane
    reads on from its own position, so the values a lane gets are those the
    `Draws` method of the same name gives its stream, call for call. The
    arithmetic is that of `Draws`, operation for operation: the correctly
    rounded IEEE operations, square root among them, give the same double on
    an array as on a Python float, but numpy's SIMD ``log`` and ``cos`` may
    differ in the last ulp, so `math.log` and `math.cos` are mapped over the
    values.

    The words wait in one ``(lanes, width)`` uint64 array. When a call would
    read past its end for any of its lanes, the next `XoshiroLanes` block is
    drawn for every lane, and the columns every lane has read are dropped.
    Lanes that will draw no more should be let go with `keep`, so that the
    lanes left read at similar rates and the array stays about a block wide.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        self._lanes = XoshiroLanes(seeds)
        self._words = np.empty((len(self._lanes), 0), dtype=np.uint64)
        self._pos = np.zeros(len(self._lanes), dtype=np.intp)

    def __len__(self) -> int:
        return len(self._pos)

    def keep(self, lanes: np.ndarray) -> None:
        """Keep only `lanes`, renumbered 0, 1, ... in the order given."""
        self._lanes._s = self._lanes._s[:, lanes]
        self._words = self._words[lanes]
        self._pos = self._pos[lanes]

    def _take(self, lanes: np.ndarray, n: int) -> np.ndarray:
        """The next n words of each of `lanes`, one row per lane."""
        pos = self._pos[lanes]
        while len(pos) and pos.max() + n > self._words.shape[1]:
            read = self._pos.min()
            self._words = np.concatenate([self._words[:, read:], self._lanes._draw()], axis=1)
            self._pos -= read
            pos = self._pos[lanes]
        self._pos[lanes] = pos + n
        return self._words[lanes[:, None], pos[:, None] + np.arange(n)]

    def random(self, lanes: np.ndarray) -> np.ndarray:
        """`Draws.random` for each of `lanes`."""
        return (self._take(lanes, 1)[:, 0] >> np.uint64(11)).astype(np.float64) * _UNIT

    def randbelow(self, lanes: np.ndarray, n: int) -> np.ndarray:
        """`Draws.randbelow(n)` for each of `lanes`, as int64; n is at most 2**63.

        A word is drawn again only for the lanes whose last word was rejected.
        """
        if not 1 <= n <= 1 << 63:
            raise ValueError(f"randbelow needs 1 <= n <= 2**63, got {n}")
        out = np.zeros(len(lanes), dtype=np.int64)
        nbits = (n - 1).bit_length()
        if not nbits:
            return out
        shift, top = np.uint64(64 - nbits), np.uint64(n - 1)
        rows = np.arange(len(lanes))
        while len(rows):
            r = self._take(lanes[rows], 1)[:, 0] >> shift
            ok = r <= top
            out[rows[ok]] = r[ok]
            rows = rows[~ok]
        return out

    def normal(self, lanes: np.ndarray, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """`Draws.normal(mean, std)` for each of `lanes`."""
        u = (self._take(lanes, 2) >> np.uint64(11)).astype(np.float64) * _UNIT
        u1 = 1.0 - u[:, 0]
        u2 = u[:, 1]
        log = np.fromiter(map(math.log, u1.tolist()), np.float64, len(u1))
        cos = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64, len(u2))
        return mean + std * (np.sqrt(-2.0 * log) * cos)
