"""Portable seeded random number generation.

Implements splitmix64 and xoshiro256** with pure 64-bit integer arithmetic so
that any run is reproducible from its manifest seed, on any platform, and so
that a reimplementation in another language can match partitions bit for bit.

Stream definition: a 64-bit seed is expanded into the four xoshiro256** state
words by four successive splitmix64 draws. Floats come from the top 53 bits of
an output word; bounded integers use rejection sampling; shuffles are
descending Fisher-Yates.

`xoshiro_words` is the one scalar recurrence: it steps one stream in a
generator with its state in locals. `Xoshiro256StarStar` seeds it and writes
the draws derived from its words (`random`, `randbelow`, `normal`, `shuffle`,
`sample_indices`) once; it is the reference. `LaneDraws` steps many streams
together: its uint64 state holds the four words of every lane, and each step
is a few numpy operations over all lanes at once (numpy's uint64 multiply
wraps mod 2^64, as the masks here do), ``_BLOCK`` steps per pass. Every lane
yields the words of the scalar stream of its seed. It makes `random`,
`randbelow`, `sample_indices` (as `sample`) and `normal` for many lanes in one
call, as arrays, each lane reading its own words from its own position and
with its own bounds; it keeps the operations of `Xoshiro256StarStar` value for
value.
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

# 2**j for j < 64: a value's bit length is the count of these at or below it.
_POWERS = np.uint64(1) << np.arange(64, dtype=np.uint64)
# By bit length b >= 1, the shift 64 - b that keeps a word's top b bits.
_SHIFTS = (64 - np.arange(65)).astype(np.uint64) % np.uint64(64)


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


def xoshiro_words(s0: int, s1: int, s2: int, s3: int) -> Iterator[int]:
    """The xoshiro256** output words from state (s0, s1, s2, s3), endlessly."""
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


class Xoshiro256StarStar:
    """One xoshiro256** stream, seeded via splitmix64 expansion of one 64-bit
    seed, and the draws derived from its words."""

    def __init__(self, seed: int) -> None:
        state = check_seed(seed)
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        self._words = xoshiro_words(*s)

    def next_u64(self) -> int:
        return next(self._words)

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


def _splitmix64_lanes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`splitmix64` over a uint64 array, one step per element."""
    state = state + np.uint64(_SPLITMIX_GAMMA)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(_SPLITMIX_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MUL2)
    return state, z ^ (z >> np.uint64(31))


class LaneDraws:
    """Many xoshiro256** streams, one lane each, stepped together in numpy, and
    the derived draws for many of them in one call, as arrays.

    Lane i reads the words of ``Xoshiro256StarStar(seeds[i])``. The state is
    a ``(4, lanes)`` uint64 array, one row per state word, so each operation
    of a step runs over all lanes in contiguous memory. Each call draws for
    each lane of an index array (no lane twice), and each lane reads on from
    its own position, so the values a lane gets are those the
    `Xoshiro256StarStar` method of the same name gives its stream, call for
    call. The arithmetic is that of `Xoshiro256StarStar`, operation for
    operation: the correctly rounded IEEE operations, square root among them,
    give the same double on an array as on a Python float, but numpy's SIMD
    ``log`` and ``cos`` may differ in the last ulp, so `math.log` and
    `math.cos` are mapped over the values.

    The words wait in one ``(rows, width)`` uint64 array, one row per lane
    still held. When a call would read past its end for any of its lanes, the
    rows of released lanes are dropped, the columns every live lane has read
    are dropped, and the next block is drawn for the rows left; lanes keep
    their numbers. Lanes that will draw no more should be let go with
    `release`, so that a refill steps only live lanes, and the lanes left
    read at similar rates and the array stays about a block wide.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        state = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
        s = np.empty((4, len(state)), dtype=np.uint64)
        for w in range(4):
            state, s[w] = _splitmix64_lanes(state)
        self._s = s
        self._words = np.empty((len(state), 0), dtype=np.uint64)
        # By row of the state, words and positions: its lane still draws.
        self._pos = np.zeros(len(state), dtype=np.intp)
        self._live = np.ones(len(state), dtype=bool)
        # By lane: its row, or -1 once a refill has dropped it.
        self._row = np.arange(len(state))

    def __len__(self) -> int:
        return len(self._row)

    def _draw(self) -> np.ndarray:
        """The next ``_BLOCK`` words of every row: a ``(rows, _BLOCK)`` uint64 array."""
        s = self._s
        s0, s1, s2, s3 = s
        low, high = s[:2], s[2:]
        out = np.empty((_BLOCK, s.shape[1]), dtype=np.uint64)
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

    def release(self, lanes: np.ndarray) -> None:
        """Let `lanes` (an index or boolean array) go: they must draw no more."""
        rows = self._row[lanes]
        self._live[rows[rows >= 0]] = False

    def _refill(self) -> None:
        """Drop the rows of released lanes and the columns every live lane has
        read, then draw the next block for the rows left."""
        live = self._live.nonzero()[0]
        read = self._pos[live].min(initial=self._words.shape[1])
        words = self._words[:, read:]
        if len(live) < len(self._live):
            renumber = np.full(len(self._live) + 1, -1)  # the last entry keeps -1 at -1
            renumber[live] = np.arange(len(live))
            self._row = renumber[self._row]
            self._s = self._s.take(live, axis=1)  # C-contiguous, as `_draw` steps it by row
            self._pos, self._live = self._pos[live], self._live[live]
            words = words[live]
        self._words = np.concatenate([words, self._draw()], axis=1)
        self._pos -= read

    def _window(self, lanes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next n words of each of `lanes`, one row per lane, and the lanes'
        positions; the words are not read."""
        rows = self._row[lanes]
        pos = self._pos[rows]
        while len(pos) and pos.max() + n > self._words.shape[1]:
            self._refill()
            rows = self._row[lanes]
            pos = self._pos[rows]
        width = self._words.shape[1]
        return self._words.take((rows * width + pos)[:, None] + np.arange(n)), pos

    def _advance(self, lanes: np.ndarray, pos: np.ndarray) -> None:
        """Move each of `lanes` to its new position."""
        self._pos[self._row[lanes]] = pos

    def _take(self, lanes: np.ndarray, n: int) -> np.ndarray:
        """The next n words of each of `lanes`, one row per lane."""
        words, pos = self._window(lanes, n)
        self._advance(lanes, pos + n)
        return words

    def random(self, lanes: np.ndarray) -> np.ndarray:
        """`Xoshiro256StarStar.random` for each of `lanes`."""
        return (self._take(lanes, 1)[:, 0] >> np.uint64(11)).astype(np.float64) * _UNIT

    def randbelow(self, lanes: np.ndarray, n) -> np.ndarray:
        """`Xoshiro256StarStar.randbelow(n)` for each of `lanes`, as int64.

        `n` is one bound for every lane or an array of one bound per lane, each
        in [1, 2**63]. A word is drawn again only for the lanes whose last word
        was rejected; a bound of 1 reads no word.
        """
        bound = np.asarray(n)
        if bound.size and not (1 <= bound.min() and bound.max() <= 1 << 63):
            raise ValueError(f"randbelow needs 1 <= n <= 2**63, got {n}")
        top = np.broadcast_to(bound, lanes.shape).astype(np.uint64) - np.uint64(1)
        shift = _SHIFTS[_POWERS.searchsorted(top, side="right")]
        out = np.zeros(len(lanes), dtype=np.int64)
        rows = top.nonzero()[0]
        while len(rows):
            r = self._take(lanes[rows], 1)[:, 0] >> shift[rows]
            ok = r <= top[rows]
            out[rows[ok]] = r[ok]
            rows = rows[~ok]
        return out

    def sample(self, lanes: np.ndarray, pool: np.ndarray, n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each lane i, ``k[i]`` entries of ``pool[i, :n[i]]`` at the positions
        `Xoshiro256StarStar.sample_indices(n[i], k[i])` draws, then ``k[i]``
        `Xoshiro256StarStar.random` values: an extra-trees split's features
        and cut points.

        A partial Fisher-Yates permutes the rows of the C-contiguous integer
        array `pool` in place. Returns the picks and the uniforms as
        ``(lanes, max k)`` arrays; row i's entries past ``k[i]`` are not draws.
        Each pick takes the first word its bound accepts after the previous
        pick's word, all found at once in a window of the lane's next words; a
        window too short for some lane is widened and the draws made again.
        """
        d = int(k.max(initial=0))
        picks = np.arange(d)
        top = np.where(picks < k[:, None], n[:, None] - 1 - picks, 0).astype(np.uint64)
        nbits = _POWERS.searchsorted(top, side="right")
        shift = _SHIFTS[nbits][:, :, None]
        idle = (nbits == 0)[:, :, None]  # picks that read no word
        rows = np.arange(len(lanes))
        width = 4 * d + 8
        while True:
            words, pos = self._window(lanes, width + d)
            values = words[:, None, :width] >> shift
            # By column: the first column at or after it whose word the pick
            # accepts, else width (two spare columns let the next pick look on);
            # an idle pick answers c - 1, so the next pick starts at c.
            columns = np.arange(width + 2)
            first = np.empty((len(lanes), d, width + 2), dtype=np.intp)
            first[:, :, width:] = width
            accepted = np.where(values <= top[:, :, None], columns[:width], width)
            np.minimum.accumulate(accepted[:, :, ::-1], axis=2, out=first[:, :, width - 1 :: -1])
            first = np.where(idle, columns - 1, first)
            at = np.empty((len(lanes), d), dtype=np.intp)
            cursor = np.zeros(len(lanes), dtype=np.intp)
            for j in range(d):
                at[:, j] = first[rows, j, cursor]
                cursor = at[:, j] + 1
            if cursor.max(initial=0) <= width:
                break
            width *= 2
        self._advance(lanes, pos + cursor + k)
        drawn = np.where(idle[:, :, 0], 0, values[rows[:, None], picks, at]).astype(np.intp)
        # Flat positions in pool of each lane's swaps.
        swap = (rows * pool.shape[1])[:, None] + picks + drawn
        flat = pool.reshape(-1)
        for j in range(d):
            picked = flat.take(swap[:, j])
            flat.put(swap[:, j], pool[:, j])
            pool[:, j] = picked
        uniforms = words[rows[:, None], cursor[:, None] + picks] >> np.uint64(11)
        return pool[:, :d], uniforms.astype(np.float64) * _UNIT

    def normal(self, lanes: np.ndarray, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """`Xoshiro256StarStar.normal(mean, std)` for each of `lanes`."""
        u = (self._take(lanes, 2) >> np.uint64(11)).astype(np.float64) * _UNIT
        u1 = 1.0 - u[:, 0]
        u2 = u[:, 1]
        log = np.fromiter(map(math.log, u1.tolist()), np.float64, len(u1))
        cos = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64, len(u2))
        return mean + std * (np.sqrt(-2.0 * log) * cos)
