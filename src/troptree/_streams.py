"""The sampling model's draws for a block of samples at once, in numpy
arrays, bit for bit as :func:`~troptree.sim.sample_rng` and
:func:`~troptree.sim._schedule` make them one sample at a time.

Sample k of a run with seed s draws from Philox4x64-10 keyed by
``SeedSequence(entropy=s, spawn_key=(k,))``.  Philox is counter-based: the
four words of block c of a stream are a pure function of its key and c
(Salmon, Moraes, Dror & Shaw 2011, "Parallel random numbers: as easy as 1,
2, 3"), so the blocks of many streams are computed together.  Here:

* :func:`keys` runs ``SeedSequence``'s uint32 hash mixing and its
  ``generate_state(2, uint64)`` with the sample index as an array;
* :func:`philox` runs the ten rounds on counter blocks 1..B, which is where
  a fresh ``Philox`` starts, with each 64 x 64 -> 128-bit product taken on
  32-bit halves;
* :func:`draws` decodes the words as numpy's ``Generator`` does:
  ``uniform(0, h)`` as ``h * ((w >> 11) * 2**-53)`` from one word each, and
  every bounded draw of ``integers`` as Lemire's method on the next 32-bit
  half, the low half of a word before its high half (Lemire 2019, "Fast
  random integer generation in an interval", ACM TOMACS 29).  A half left
  over by the first tree's pair draws is the second tree's first, as the
  ``Generator`` keeps it, so a sample spends 5n - 8 words;
* :func:`rows` writes every draw's ultrametric row, as a column, with the
  float additions of :func:`~troptree.trees._distances_of_merges`.

:func:`sample_blocks` gives either experiment its blocks: one :func:`keys`
and :func:`philox` pass for a run of blocks, and the rest per block.
Lemire's method redraws when the low word of its product falls below
2**32 mod (bound + 1), with probability about bound / 2**32 per draw; a
sample with such a draw is drawn again one sample at a time.  Either
experiment imports this module, so that the other callers of
:mod:`troptree.sim` do not load it.
"""

from __future__ import annotations

import functools

import numpy as np

from .sim import (_STAR_BLOCK_ENTRIES, SampleConfig, _draws, _merges_of, _pair_bounds, _schedule,
                  sample_rng)

_MASK32 = 0xFFFFFFFF

# SeedSequence's hash constants, and the size of its pool in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

_32 = np.uint64(32)
# Philox4x64's round multipliers, their 32-bit halves and Weyl key increments, per word
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_M1, _PHILOX_M0 = _PHILOX_M >> _32, _PHILOX_M & _MASK32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_ROUNDS = 10


def _mix(x, y):
    """SeedSequence's ``mix`` on uint32 values (Python ints or uint64
    arrays holding uint32 values)."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """The Philox keys of ``SeedSequence(entropy=seed, spawn_key=(k,))``
    for every sample index k in `indices`, shape (len(indices), 2) uint64.
    `seed` is a non-negative int of any size; each index must be below
    2**32, a one-word spawn key.

    The entropy is the seed's uint32 words, low first, padded with zeros to
    the pool size, and then k.  The hash constant steps the same way
    whatever the values, so every word but k mixes in as a Python int, and
    k as an array."""
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy = words + [0] * (_POOL - len(words)) + [np.asarray(indices, dtype=np.uint64)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): one pass over the pool, little-endian pairs
    const = _INIT_B
    state = []
    for word in pool:
        word = word ^ const
        const = const * _MULT_B & _MASK32
        word = word * const & _MASK32
        state.append(word ^ word >> 16)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def philox(key: np.ndarray, blocks: int) -> np.ndarray:
    """Words 0..4*blocks-1 of the Philox4x64-10 stream of every key in
    `key` (shape (streams, 2) uint64), shape (streams, 4*blocks): counter
    blocks 1..blocks, four words each, in order.

    A counter is (c0, c1, c2, c3) and a key (k0, k1).  Each round takes
    (hi0, lo0) = M0 * c0 and (hi1, lo1) = M1 * c2 and makes the counter
    (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the key gains (W0, W1)
    between rounds.  The words are kept in pairs, x = (c0, c2) and
    y = (c1, c3), so that each step is one array operation for both."""
    streams = len(key)
    k = np.array(key.T, order="C")[:, :, None]                # (k0, k1)
    # (c0, c2), (c1, c3) and four scratch arrays, made once and rotated
    x, y, a, b, t, c = np.zeros((6, 2, streams, blocks), dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    for r in range(_ROUNDS):
        if r:
            k += _PHILOX_W
        # the high words of M * x from 32-bit halves, as Hacker's Delight's mulhu
        np.right_shift(x, _32, out=a)
        np.bitwise_and(x, _MASK32, out=b)
        np.multiply(a, _PHILOX_M0, out=t)
        np.multiply(b, _PHILOX_M0, out=c)
        c >>= _32
        t += c
        a *= _PHILOX_M1
        a += np.right_shift(t, _32, out=c)
        t &= _MASK32
        b *= _PHILOX_M1
        b += t
        b >>= _32
        a += b
        np.multiply(x[::-1], _PHILOX_M[::-1], out=b)            # the next y
        y ^= k
        y ^= a[::-1]                                            # the next x
        x, y, b = y, b, x
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(streams, 4 * blocks)


def words_per_sample(n: int) -> int:
    """The stream words that a sample's two draws at n >= 2 leaves spend."""
    return 5 * n - 8


@functools.lru_cache(maxsize=32)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where each of a sample's two draws at n leaves reads the stream: the
    word of each uniform, shape (2, n-2); the 32-bit half of each bounded
    draw, shape (2, draws), counting halves 2w (low) and 2w+1 (high) of
    word w; the bounds in :func:`~troptree.sim._pair_bounds` order that
    draw one (all but a bound of 0), and Lemire's rejection threshold
    2**32 mod (bound + 1) of each.

    It follows the ``Generator``: a uniform takes a whole word, and a
    32-bit draw takes the half kept from the last word split, if there is
    one, or splits the next word and keeps its high half."""
    bounds = _pair_bounds(n)
    drawn = bounds[bounds > 0].astype(np.uint64)
    word, kept = 0, None
    uniforms, halves = [], []
    for _ in range(2):
        uniforms.append(range(word, word + n - 2))
        word += n - 2
        halves.append([])
        for _ in drawn:
            if kept is None:
                halves[-1].append(2 * word)
                kept, word = 2 * word + 1, word + 1
            else:
                halves[-1].append(kept)
                kept = None
    assert word == words_per_sample(n) and kept is None
    return (np.array(uniforms, dtype=np.intp).reshape(2, n - 2), np.array(halves),
            drawn, (1 << 32) % (drawn + 1))


def draws(words: np.ndarray, n: int, height: float,
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sampling model's two draws per sample from each sample's stream
    words (shape (samples, >= 5n-8) uint64): the merge heights, shape
    (samples, 2, n-1), non-root ones sorted and the root at `height`; the
    lineage positions i < j merged at each step, as
    :func:`~troptree.sim._schedule` picks them, each shape (samples, 2,
    n-1); and a flag per sample that one of its bounded draws hit a Lemire
    rejection, so that what this returns for it is not what the
    ``Generator`` draws."""
    uniforms, halves, drawn, threshold = _layout(n)
    samples = len(words)
    uniform = (words[:, uniforms] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    heights = np.empty((samples, 2, n - 1))
    heights[..., :-1] = np.sort(height * uniform, axis=-1)
    heights[..., -1] = height
    split = np.stack([words & _MASK32, words >> _32], axis=-1).reshape(samples, -1)
    product = split[:, halves] * (drawn + np.uint64(1))
    rejected = ((product & _MASK32) < threshold).any(axis=(1, 2))
    values = np.zeros((samples, 2, 3 * (n - 1)), dtype=np.intp)
    values[..., _pair_bounds(n) > 0] = product >> _32
    return (heights, *_pair_positions(n, values[..., 0::3], values[..., 1::3]), rejected)


def _pair_positions(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions i < j that :func:`~troptree.sim._merges_of` reads from
    the draws i and j of each merge (last axis): if j is i, j is k-1."""
    j = np.where(j == i, np.arange(n - 1, 0, -1), j)
    return np.minimum(i, j), np.maximum(i, j)


def draw_merges(n: int, heights: np.ndarray, i: np.ndarray, j: np.ndarray) -> list:
    """The merge schedule (:func:`~troptree.sim._merges_of`) of one draw as
    :func:`draws` gives it."""
    return _merges_of(n, heights.tolist(), i.tolist(), j.tolist())


# sums past the float range are inf, as in Python floats, and the distance
# check names them
@np.errstate(over="ignore")
def rows(n: int, heights: np.ndarray, first: np.ndarray, second: np.ndarray,
         members: np.ndarray | None = None) -> np.ndarray:
    """The condensed ultrametric rows, shape (draws, n(n-1)/2), of merge
    schedules given one per row as :func:`draws` gives them: the merge
    heights and the lineage positions i < j merged at each step.
    `members`, if given, gets the leaves below each step's node.

    The entries are the floats of :func:`~troptree.trees._distances_of_merges`:
    a leaf's depth gains its lineage's branch at each merge of that
    lineage, in merge order, and a pair's entry is the sum of its two
    depths right after the merge that joins them.  The depths are kept
    after every step.  The step that joins a pair is read from the leaf
    order in which each merge puts its first lineage before its second: it
    is the largest step that splits the leaves between the two.  Arrays
    hold a column per draw, and the rows view the (entries, draws) result:
    each step and reduction runs along the draws, not along n."""
    count = len(heights)
    lineage = np.arange(n).repeat(count).reshape(n, count)    # each leaf's position
    top = np.zeros((n, count))                                # its lineage's height
    depth = np.zeros((n, count))
    depths = np.empty((n - 1, n, count))
    seconds = np.empty((n - 1, n, count), dtype=bool)   # the leaves of each step's j
    firsts = np.empty((n - 1, count), dtype=np.int32)   # and the size of its i
    above = np.empty((n, count), dtype=bool)
    joins = None if members is None else members.transpose(1, 2, 0)
    for m, (h, i, j) in enumerate(zip(heights.T, first.T, second.T)):
        in_i = lineage == i
        in_j = np.equal(lineage, j, out=seconds[m])
        joined = np.logical_or(in_i, in_j, out=None if joins is None else joins[m])
        # heights never fall along a schedule, so no branch is clamped at 0
        np.add(depth, h - top, out=depth, where=joined)
        depths[m] = depth
        np.copyto(top, h, where=joined)
        np.sum(in_i, axis=0, out=firsts[m])
        # pop j, pop i, append the merged lineage
        np.subtract(lineage, np.greater(lineage, j, out=above), out=lineage)
        np.subtract(lineage, np.greater(lineage, i, out=above), out=lineage)
        np.putmask(lineage, joined, n - m - 2)
    # a leaf's place in the leaf order: the sizes of the first lineages of
    # the merges where it is in the second; each step splits the gap before
    # its second lineage's first leaf
    place = (seconds * firsts[:, None]).sum(axis=0, dtype=np.int32)
    gap = np.where(seconds, place, n).min(axis=1) - 1
    col = np.arange(count)
    # each gap's step, as the offset of that step's depths in `depths`
    gap_at = np.empty((n - 1, count), dtype=np.intp)
    gap_at[gap, col] = np.arange(n - 1)[:, None] * (n * count) + col
    join = np.zeros((n, n, count), dtype=np.intp)
    for p in range(n - 1):
        np.maximum.accumulate(gap_at[p:], axis=0, out=join[p, p + 1:])
    join += join.transpose(1, 0, 2)
    x, y = np.triu_indices(n, k=1)
    at = join.ravel().take((place[x] * n + place[y]) * count + col)
    depths = depths.ravel()
    out = depths.take(at + x[:, None] * count)
    out += depths.take(at + y[:, None] * count)
    return out.T


def sample_draw(cfg: SampleConfig, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample `index`'s two draws as :func:`draws` gives them, from
    :func:`~troptree.sim.sample_rng` and :func:`~troptree.sim._draws`."""
    rng = sample_rng(cfg.seed, index)
    heights, i, j = (np.array(x) for x in zip(*(_draws(cfg.n, cfg.height, rng)
                                                 for _ in range(2))))
    return (heights, *_pair_positions(cfg.n, i, j))


def sample_blocks(cfg: SampleConfig, block: int):
    """Samples 0..cfg.samples-1 in blocks of `block`, each as its first
    sample and the merge heights and positions i < j of :func:`draws`,
    shape (2 * samples, n-1), u and v in turn.  One :func:`keys` and
    :func:`philox` pass makes the words of a run of whole blocks, as many
    as :data:`~troptree.sim._STAR_BLOCK_ENTRIES` words hold (at least
    one); the rest runs per block (:func:`_block`)."""
    width = -(-words_per_sample(cfg.n) // 4)
    run = block * max(1, _STAR_BLOCK_ENTRIES // (4 * width * block))
    for start in range(0, cfg.samples, run):
        indices = np.arange(start, min(start + run, cfg.samples), dtype=np.uint64)
        words = philox(keys(cfg.seed, indices & _MASK32), width)
        for at in range(0, len(indices), block):
            yield _block(cfg, indices[at:at + block], words[at:at + block])


def _block(cfg: SampleConfig, indices: np.ndarray, words: np.ndarray,
           ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """A block of :func:`sample_blocks` from its samples' indices and
    words: :func:`draws`, with each sample that hit a Lemire rejection, or
    whose index of 2**32 or more makes a two-word spawn key, drawn again by
    :func:`sample_draw`, and every sample if the first one's schedules
    differ from :func:`~troptree.sim._schedule`'s, as a numpy that draws
    differently would make them."""
    n, first = cfg.n, int(indices[0])
    heights, i, j, redraw = draws(words, n, cfg.height)
    redraw |= indices > _MASK32
    rng = sample_rng(cfg.seed, first)
    if not redraw[0] and any(
            _schedule(n, cfg.height, rng)
            != draw_merges(n, heights[0, t], i[0, t], j[0, t])
            for t in range(2)):
        redraw[:] = True
    for r in np.flatnonzero(redraw).tolist():
        heights[r], i[r], j[r] = sample_draw(cfg, first + r)
    return first, *(a.reshape(2 * len(words), n - 1) for a in (heights, i, j))
