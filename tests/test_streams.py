"""The star-probability sampler's block route (troptree._streams) against
the one-sample-at-a-time route: the same keys, words, draws and rows bit
for bit, the same reports and the same errors."""

import re
import warnings

import numpy as np
import pytest

import star_loop
import troptree as tt
from test_sim import oracle_survey
from troptree import (SampleConfig, _streams, check_nni_conjecture, estimate_star_probability,
                      sample_rng)
from troptree.cli import main
from troptree.sim import _merges_of, _schedule
from troptree.treespace import _invalid_distances, star_crossings
from troptree.trees import _distances_of_merges, _merge_lengths

#: Seeds of one, two and five uint32 words.
SEEDS = (7, 2**32 + 5, 10**44)


def outcome(experiment, cfg):
    """A run's report, or the error it stops with."""
    try:
        return experiment(cfg).to_json()
    except tt.TropTreeError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("seed", [0, *SEEDS, 2**200 + 3])
def test_keys_and_words_match_numpy(seed):
    indices = np.array([0, 1, 5, 2**31, 2**32 - 1], dtype=np.uint64)
    keys = _streams.keys(seed, indices)
    words = _streams.philox(keys, 3)
    for k, index in enumerate(indices.tolist()):
        bits = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        assert keys[k].tolist() == bits.state["state"]["key"].tolist()
        assert words[k].tolist() == bits.random_raw(12).tolist()


def test_block_draws_match_scalar_draws():
    # 79 sizes x 3 seeds x 3 heights x 2 streams = 1,422 streams, both
    # parities of n: merge heights by float.hex, pairs, rows bit for bit,
    # and the stream position after the two draws
    heights = (1e-3, 1.0, 1e3)
    streams = 0
    for n in range(2, 81):
        spent = _streams.words_per_sample(n)
        for seed in SEEDS:
            indices = np.array([n, 2**32 - 1 - n], dtype=np.uint64)
            words = _streams.philox(_streams.keys(seed, indices), spent // 4 + 1)
            for height in heights:
                h, i, j, rejected = _streams.draws(words, n, height)
                assert not rejected.any()
                rows = _streams.rows(n, *(a.reshape(-1, n - 1) for a in (h, i, j)))
                rows = rows.reshape(len(indices), 2, -1)
                for k, index in enumerate(indices.tolist()):
                    rng = sample_rng(seed, index)
                    for t in range(2):
                        want = _schedule(n, height, rng)
                        got = _merges_of(n, h[k, t].tolist(), i[k, t].tolist(), j[k, t].tolist())
                        assert [(x.hex(), p) for x, p in got] == \
                            [(x.hex(), p) for x, p in want], (n, seed, index, t)
                        row = _distances_of_merges(n, want, _merge_lengths(n, want))
                        assert rows[k, t].tobytes() == np.array(row).tobytes()
                    assert rng.bit_generator.random_raw() == words[k, spent]
                    streams += 1
    assert streams >= 1000


@pytest.mark.parametrize("n", range(2, 21))
def test_leaf_major_rows_match_sample_major_rows(n):
    # whole blocks, from one draw to the entries bound's block, at heights
    # whose sums reach the float range: rows bit for bit against the
    # sample-major writer and, on a spread of draws, _distances_of_merges;
    # the leaves below each step as the sample-major writer gives them
    for count in sorted({1, 7, 512, tt.sim._star_block_rows(n)}):
        for height in (1e-3, 1.0, 1e3, 1e308):
            words = _streams.philox(_streams.keys(5, np.arange(count, dtype=np.uint64)),
                                    -(-_streams.words_per_sample(n) // 4))
            h, i, j, _ = _streams.draws(words, n, height)
            h, i, j = (a.reshape(2 * count, n - 1) for a in (h, i, j))
            members = np.empty((2 * count, n - 1, n), dtype=bool)
            want_members = np.empty_like(members)
            with np.errstate(over="ignore"):
                rows = _streams.rows(n, h, i, j, members)
                want = star_loop.sample_major_rows(n, h, i, j, want_members)
                assert _streams.rows(n, h, i, j).tobytes() == rows.tobytes()
            assert rows.shape == (2 * count, n * (n - 1) // 2)
            assert rows.tobytes() == want.tobytes(), (n, count, height)
            assert np.array_equal(members, want_members), (n, count, height)
            for t in sorted({*range(0, 2 * count, 61), 2 * count - 1}):
                merges = _streams.draw_merges(n, h[t], i[t], j[t])
                row = _distances_of_merges(n, merges, _merge_lengths(n, merges))
                assert rows[t].tobytes() == np.array(row).tobytes(), (n, count, height, t)


@pytest.mark.parametrize("n, height, samples, seed", [
    (4, 1.0, 512, 1), (12, 1.0, 496, 1), (20, 1e9, 300, 2),
    (4, 5e-324, 512, 1), (6, 1e308, 64, 1),
])
def test_checks_read_strided_rows_as_contiguous_ones(n, height, samples, seed):
    # the star experiment checks views of the leaf-major rows, u and v in
    # turn: the distance checks and the star test, with their messages,
    # are those of contiguous copies, on zero rows and infinite rows too
    cfg = SampleConfig(n=n, height=height, samples=samples, seed=seed)
    rows = _streams.rows(n, *next(_streams.sample_blocks(cfg, samples))[1:])
    assert not rows.flags.c_contiguous
    copy = np.ascontiguousarray(rows)
    assert rows.tobytes() == copy.tobytes()

    def answers(x):
        found = [_invalid_distances(part) for part in (x, x[0::2], x[1::2], x[5:40:3])]
        try:
            with np.errstate(invalid="ignore"):     # inf - inf in the height check
                found.append(star_crossings(x[0::2], x[1::2]).tolist())
        except tt.TropTreeError as exc:
            found.append(str(exc))
        return found

    got = answers(rows)
    assert got == answers(copy)
    if height == 5e-324:
        assert got[0][1] == "all pairwise distances must be positive"
    if height == 1e308:
        assert got[0][1] == "all pairwise distances must be finite"
    if height == 1e9:
        assert got[-1].startswith("height mismatch: ")


def test_two_word_spawn_keys_are_flagged(monkeypatch):
    # indices from 2**32 on have a two-word spawn key, which keys() does
    # not derive: those samples are drawn one at a time, the ones below it
    # from the block's words
    n, first = 5, 2**32 - 2
    indices = np.arange(first, first + 4, dtype=np.uint64)
    words = _streams.philox(_streams.keys(3, indices & 0xFFFFFFFF), 5)
    drawn = spy_on_scalar_rows(monkeypatch)
    got, h, i, j = _streams._block(SampleConfig(n=n, seed=3), indices, words)
    assert (got, drawn) == (first, [2**32, 2**32 + 1])
    for k in range(4):
        rng = sample_rng(3, first + k)
        for t in (2 * k, 2 * k + 1):
            want = _schedule(n, 1.0, rng)
            assert _merges_of(n, h[t].tolist(), i[t].tolist(), j[t].tolist()) == want


def test_lemire_rejections_are_flagged():
    # n = 4: the first pair draw of each tree has bound 2, whose rejection
    # threshold is 2**32 mod 3 = 1, so a zero half is rejected; bounds 3 and
    # 1 reject nothing
    n = 4
    uniforms, halves, drawn, threshold = _streams._layout(n)
    assert drawn.tolist() == [2, 3, 1, 1, 2, 1, 1, 1]
    assert threshold.tolist() == [1, 0, 0, 0, 1, 0, 0, 0]
    # at odd n the second tree's first pair draw is the high half that the
    # first tree's last draw left: n = 3 spends words 0-6
    assert _streams._layout(3)[0].tolist() == [[0], [4]]
    assert _streams._layout(3)[1].tolist() == [[2, 3, 4, 5, 6], [7, 10, 11, 12, 13]]
    words = np.random.default_rng(3).integers(1, 2**63, (6, _streams.words_per_sample(n)),
                                              dtype=np.uint64)
    # a zero half for a bound of 3, and one with a low product of 1 for a
    # bound of 2, are kept; zero halves for a bound of 2 are rejected
    for sample, tree, draw, value in ((1, 0, 1, 0), (2, 1, 0, 0xAAAAAAAB), (3, 0, 0, 0),
                                      (4, 1, 4, 0), (5, 1, 0, 0)):
        half = halves[tree, draw]
        word = int(words[sample, half // 2])
        shift = 32 * (half % 2)
        words[sample, half // 2] = word & ~(0xFFFFFFFF << shift) | value << shift
    assert _streams.draws(words, n, 1.0)[3].tolist() == [False, False, False, True, True, True]


def spy_on_scalar_rows(monkeypatch):
    """The sample indices that the star experiment draws one at a time."""
    drawn = []
    scalar = _streams.sample_draw

    def spy(cfg, index):
        drawn.append(index)
        return scalar(cfg, index)

    monkeypatch.setattr(_streams, "sample_draw", spy)
    return drawn


def test_block_route_draws_nothing_one_at_a_time(monkeypatch):
    drawn = spy_on_scalar_rows(monkeypatch)
    cfg = SampleConfig(n=4, samples=2000, seed=1)
    assert outcome(estimate_star_probability, cfg) == outcome(star_loop.star_report, cfg)
    assert drawn == []


def test_rejected_samples_are_drawn_one_at_a_time(monkeypatch):
    # zero words give every sample a rejected draw at n = 4; samples 0, 5
    # and 12 get them, in blocks of 7, so the first sample of a block is
    # among them and the guard is skipped there
    keys, philox = _streams.keys, _streams.philox
    crafted = {0, 5, 12}
    indices = []

    def seen(seed, block):
        indices[:] = block.tolist()
        return keys(seed, block)

    def zeroed(key, blocks):
        words = philox(key, blocks)
        words[[k for k, index in enumerate(indices) if index in crafted]] = 0
        return words

    monkeypatch.setattr(_streams, "keys", seen)
    monkeypatch.setattr(_streams, "philox", zeroed)
    monkeypatch.setattr(tt.sim, "_star_block_rows", lambda n: 7)
    drawn = spy_on_scalar_rows(monkeypatch)
    cfg = SampleConfig(n=4, samples=20, seed=1)
    assert outcome(estimate_star_probability, cfg) == outcome(star_loop.star_report, cfg)
    assert drawn == sorted(crafted)


def test_guard_mismatch_draws_the_block_one_at_a_time(monkeypatch):
    # draws that differ in the last bit of every merge height, as a numpy
    # whose internals moved might give: every block fails its guard
    draws = _streams.draws

    def drifted(words, n, height):
        h, i, j, rejected = draws(words, n, height)
        return np.nextafter(h, np.inf), i, j, rejected

    monkeypatch.setattr(_streams, "draws", drifted)
    monkeypatch.setattr(tt.sim, "_star_block_rows", lambda n: 7)
    drawn = spy_on_scalar_rows(monkeypatch)
    cfg = SampleConfig(n=5, samples=20, seed=3)
    assert outcome(estimate_star_probability, cfg) == outcome(star_loop.star_report, cfg)
    assert drawn == list(range(20))


@pytest.mark.parametrize("height", [1e-3, 1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 20])
def test_star_reports_match_per_sample_loop(n, height, monkeypatch):
    # blocks of 7 samples, so that 40 samples cross five block boundaries
    monkeypatch.setattr(tt.sim, "_star_block_rows", lambda n: 7)
    for seed in (0, 2):
        cfg = SampleConfig(n=n, height=height, samples=40, seed=seed)
        assert outcome(estimate_star_probability, cfg) == outcome(star_loop.star_report, cfg)


@pytest.mark.parametrize("n", [3, 4, 8, 20])
def test_star_reports_match_per_sample_loop_across_a_natural_block(n):
    block = tt.sim._star_block_rows(n)
    assert block > 1
    cfg = SampleConfig(n=n, samples=block + 3, seed=11)
    assert outcome(estimate_star_probability, cfg) == outcome(star_loop.star_report, cfg)


@pytest.mark.parametrize("n, height, samples, seed, message", [
    # the absolute tolerance of 1e-9 lies below the rounding of the heights
    (20, 1e9, 300, 2, "height mismatch: 1000000000 vs 1000000000 (off by 1.2e-07, tol 1e-09)"),
    (4, 5e-324, 10, 1, "all pairwise distances must be positive"),
    # the first invalid row is sample 4's v, after its valid u
    (3, 1e-323, 10, 2, "all pairwise distances must be positive"),
    # sums past the largest float are inf, with no warning on the way
    (4, 1e308, 5, 1, "all pairwise distances must be finite"),
])
def test_star_errors_match_per_sample_loop(n, height, samples, seed, message, capsys,
                                          monkeypatch):
    cfg = SampleConfig(n=n, height=height, samples=samples, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for experiment in (estimate_star_probability, star_loop.star_report):
            with pytest.raises(tt.TropTreeError, match="^" + re.escape(message) + "$"):
                experiment(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(tt.sim, "_star_block_rows", lambda n: 7)
            with pytest.raises(tt.TropTreeError, match="^" + re.escape(message) + "$"):
                estimate_star_probability(cfg)
    code = main(["simulate", "star-prob", "--n", str(n), "--height", repr(height),
                 "--samples", str(samples), "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert (code, out, err.splitlines()[0]) == (3, "", f"error: {message}")


#: Samples per block in the pass tests: three blocks and a half fit the
#: patched pass bound, so a pass holds three.
BLOCK = 7
#: The first sample of a run (a pass and a block), of a block inside a
#: pass, of the second pass, and one inside a block.
CRAFTED = {0, 7, 21, 30}
#: The route's own key and word makers, for the words that each block should get.
KEYS, PHILOX = _streams.keys, _streams.philox


def patch_passes(monkeypatch, n, crafted=frozenset()):
    """Blocks of BLOCK samples for either experiment, three to a word pass,
    with the words of the `crafted` samples zeroed (a Lemire rejection at
    any n).  Returns what the route read: the sample indices of each
    :func:`keys` call, and the indices and words of each block."""
    width = -(-_streams.words_per_sample(n) // 4)
    monkeypatch.setattr(tt.sim, "_star_block_rows", lambda n: BLOCK)
    monkeypatch.setattr(tt.sim, "_survey_block_rows", lambda n: BLOCK)
    monkeypatch.setattr(_streams, "_STAR_BLOCK_ENTRIES", 4 * width * (3 * BLOCK + BLOCK // 2))
    block = _streams._block
    passes, blocks = [], []

    def seen(seed, indices):
        passes.append(indices.tolist())
        return KEYS(seed, indices)

    def zeroed(key, count):
        words = PHILOX(key, count)
        words[[k for k, index in enumerate(passes[-1]) if index in crafted]] = 0
        return words

    def one_block(cfg, indices, words):
        blocks.append((indices.tolist(), words.copy()))
        return block(cfg, indices, words)

    monkeypatch.setattr(_streams, "keys", seen)
    monkeypatch.setattr(_streams, "philox", zeroed)
    monkeypatch.setattr(_streams, "_block", one_block)
    return passes, blocks


def check_passes(cfg, passes, blocks, crafted=frozenset()):
    """Each sample index is keyed once, in passes of three blocks, and each
    block's words are those of its own keys, bit for bit."""
    run = 3 * BLOCK
    assert [k for p in passes for k in p] == list(range(cfg.samples))
    assert [len(p) for p in passes] == [min(run, cfg.samples - s) for s in range(0, cfg.samples, run)]
    assert len(passes) >= 2 and cfg.samples % BLOCK
    assert [k for b, _ in blocks for k in b] == list(range(cfg.samples))
    assert [len(b) for b, _ in blocks] == [len(p[s:s + BLOCK]) for p in passes
                                           for s in range(0, len(p), BLOCK)]
    width = -(-_streams.words_per_sample(cfg.n) // 4)
    for indices, words in blocks:
        want = PHILOX(KEYS(cfg.seed, np.array(indices, dtype=np.uint64)), width)
        want[[k for k, index in enumerate(indices) if index in crafted]] = 0
        assert words.tobytes() == want.tobytes(), indices


@pytest.mark.parametrize("n, samples, height", [
    (3, 200, 1.0), (4, 47, 1e-3), (5, 101, 1.0), (8, 64, 1e3), (12, 40, 1.0), (20, 45, 1e6),
])
def test_star_passes_match_per_sample_loop(n, samples, height, monkeypatch):
    # passes of three blocks of 7, the last block of the run partial, with
    # rejections at the first sample of a pass and of a block
    cfg = SampleConfig(n=n, height=height, samples=samples, seed=4)
    want = outcome(star_loop.star_report, cfg)
    passes, blocks = patch_passes(monkeypatch, n, CRAFTED)
    drawn = spy_on_scalar_rows(monkeypatch)
    assert outcome(estimate_star_probability, cfg) == want
    check_passes(cfg, passes, blocks, CRAFTED)
    assert drawn == sorted(CRAFTED)


@pytest.mark.parametrize("n, samples", [(3, 45), (5, 47), (6, 40), (9, 41)])
def test_survey_passes_match_tree_route(n, samples, monkeypatch):
    cfg = SampleConfig(n=n, samples=samples, seed=4)
    want = oracle_survey(cfg).to_json()
    passes, blocks = patch_passes(monkeypatch, n, CRAFTED)
    drawn = spy_on_scalar_rows(monkeypatch)
    assert check_nni_conjecture(cfg).to_json() == want
    check_passes(cfg, passes, blocks, CRAFTED)
    assert drawn == sorted(CRAFTED)


@pytest.mark.parametrize("experiment, oracle, n", [
    (estimate_star_probability, star_loop.star_report, 4),
    (estimate_star_probability, star_loop.star_report, 7),
    (check_nni_conjecture, oracle_survey, 6),
])
def test_every_block_of_a_pass_runs_its_guard(experiment, oracle, n, monkeypatch):
    # draws that differ in the last bit of every merge height, as a numpy
    # whose internals moved might give: every block fails its guard, not
    # only the first of each pass
    cfg = SampleConfig(n=n, samples=50, seed=6)
    want = outcome(oracle, cfg)
    passes, blocks = patch_passes(monkeypatch, n)
    draws = _streams.draws

    def drifted(words, n, height):
        h, i, j, rejected = draws(words, n, height)
        return np.nextafter(h, np.inf), i, j, rejected

    monkeypatch.setattr(_streams, "draws", drifted)
    drawn = spy_on_scalar_rows(monkeypatch)
    assert outcome(experiment, cfg) == want
    check_passes(cfg, passes, blocks)
    assert drawn == list(range(cfg.samples))
