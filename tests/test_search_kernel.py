"""The block search kernel against the scalar Gray walk of ``enumerate_codewords``.

Every kernel-backed function in :mod:`compoundcode.codec` is checked against
a plain loop over :func:`enumerate_codewords`, including ties, codes with
several information words per codeword, rows of more than one 64-bit word,
dimension 0, infeasible cosets, and (with the block size patched down)
searches that span several blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compoundcode import codec
from compoundcode.codec import (
    channel_decode_ml,
    channel_decode_threshold,
    count_good_codewords,
    enumerate_codewords,
    moment_experiment,
    source_encode_exhaustive,
    weight_enumerator_exact,
    weight_threshold,
)
from compoundcode.ensembles import (
    CompoundCode,
    EnsembleParams,
    assemble,
    coset_code,
    random_bitvector,
    trial_rng,
)
from compoundcode.gf2 import BitVector, SparseBitMatrix

SETTINGS = settings(derandomize=True, deadline=None, max_examples=120)


def random_code(seed, n, m, k, k1, density):
    rng = np.random.default_rng(seed)
    G = SparseBitMatrix.from_dense(rng.random((n, m)) < density)
    H = SparseBitMatrix.from_dense(rng.random((k, m)) < 0.5)
    return CompoundCode(G, H, k1=k1)


@st.composite
def searches(draw):
    """A code, a constraint, a target word and a block size."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(60, 140)))
    m = draw(st.integers(1, 8))
    k = draw(st.integers(0, m))
    k1 = draw(st.integers(0, k))
    code = random_code(draw(st.integers(0, 2 ** 32 - 1)), n, m, k, k1,
                       draw(st.sampled_from([0.1, 0.3, 0.5])))
    kind = draw(st.sampled_from(["full", "h1", "coset"]))
    constraint = kind
    if kind == "coset":
        bits = draw(st.lists(st.integers(0, 1), min_size=code.k2,
                             max_size=code.k2))
        constraint = coset_code(code, BitVector.from_bits(bits))
        if not constraint.feasible:
            constraint = "h1"
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # Start from a codeword so that small radii and exact ties occur.
        words = [x for _, x in enumerate_codewords(code, constraint)]
        target = words[int(rng.integers(len(words)))]
        flips = rng.choice(n, size=min(n, int(rng.integers(0, 3))), replace=False)
        target = target ^ BitVector.from_support(n, flips)
    else:
        target = random_bitvector(n, rng)
    block_bits = draw(st.sampled_from([2, 3, 14]))
    return code, constraint, target, block_bits


def oracle_nearest(code, target, constraint):
    best = None
    for y, x in enumerate_codewords(code, constraint):
        d = (x ^ target).weight()
        if best is None or d < best[2]:
            best = (y, x, d)
    return best


def oracle_within(code, target, radius, constraint):
    """(distinct codewords within radius, first hit (y, x, d) or None)."""
    keys, first = set(), None
    for y, x in enumerate_codewords(code, constraint):
        d = (x ^ target).weight()
        if d <= radius:
            keys.add(x.key())
            first = first or (y, x, d)
    return len(keys), first


def oracle_histogram(pairs, length):
    counts = np.zeros(length + 1, dtype=np.int64)
    for x in {x.key(): x for _, x in pairs}.values():
        counts[x.weight()] += 1
    return counts


@SETTINGS
@given(searches())
def test_nearest_matches_first_minimum_of_the_walk(case):
    code, constraint, target, block_bits = case
    y, x, d = oracle_nearest(code, target, constraint)
    with mock.patch.object(codec, "_BLOCK_BITS", block_bits):
        enc = source_encode_exhaustive(code, target, constraint)
        ml = channel_decode_ml(code, target, constraint)
    assert (enc.y_hat, enc.x_hat, enc.distortion) == (y, x, d / code.n)
    assert (ml.status, ml.y_hat, ml.x_hat, ml.distance) == ("decoded", y, x, d)


@SETTINGS
@given(searches(), st.integers(-1, 12))
def test_threshold_and_count_match_the_walk(case, radius):
    code, constraint, target, block_bits = case
    distinct, first = oracle_within(code, target, radius, constraint)
    with mock.patch.object(codec, "_BLOCK_BITS", block_bits):
        res = channel_decode_threshold(code, target, p=0.0, epsilon_n=radius,
                                       constraint=constraint)
        count = count_good_codewords(code, target, radius / code.n + 1e-12,
                                     constraint)
    assert count == (distinct if radius >= 0 else 0)
    if distinct == 1:
        assert (res.status, res.y_hat, res.x_hat, res.distance) == ("decoded", *first)
    else:
        assert (res.status, res.y_hat, res.x_hat, res.distance) == ("erasure", None, None, None)


@SETTINGS
@given(searches())
def test_weight_enumerators_match_the_walk(case):
    code, constraint, _, block_bits = case
    # A parity-check matrix's null space is the code of G = I with that H.
    as_checks = CompoundCode(SparseBitMatrix.identity(code.m), code.H, k1=code.k)
    with mock.patch.object(codec, "_BLOCK_BITS", block_bits):
        hist = weight_enumerator_exact(code, constraint)
        hist_h = weight_enumerator_exact(code.H)
    expected = oracle_histogram(enumerate_codewords(code, constraint), code.n)
    assert hist.length == code.n and np.array_equal(hist.counts, expected)
    assert np.array_equal(hist_h.counts,
                          oracle_histogram(enumerate_codewords(as_checks), code.m))


def test_threshold_counts_zero_one_and_many_distinct_codewords():
    # Columns 0 and 2 of G are equal: every codeword has two information words.
    G = SparseBitMatrix.from_rows(70, 3, [[0, 2], [1], [0, 1, 2]] * 23 + [[1]])
    code = CompoundCode(G, SparseBitMatrix(0, 3, []), k1=0)
    x = next(x for _, x in enumerate_codewords(code) if x.weight())
    for radius, status in ((-1, "erasure"), (0, "decoded"), (70, "erasure")):
        for block_bits in (1, 2, 14):
            with mock.patch.object(codec, "_BLOCK_BITS", block_bits):
                res = channel_decode_threshold(code, x, 0.0, epsilon_n=radius)
            assert res.status == status
    with mock.patch.object(codec, "_BLOCK_BITS", 1):
        assert count_good_codewords(code, x, 1.0) == 4
        res = channel_decode_threshold(code, x, 0.0, epsilon_n=0)
    _, first = oracle_within(code, x, 0, "full")
    assert (res.y_hat, res.x_hat, res.distance) == first


def test_dimension_zero():
    code = random_code(3, 70, 4, 4, 2, 0.5)
    code = CompoundCode(code.G, SparseBitMatrix.identity(4), k1=4)
    assert code.null_basis_H == []
    s = BitVector.from_support(70, [1, 5, 64])
    enc = source_encode_exhaustive(code, s)
    assert enc.y_hat == BitVector.zeros(4) and enc.x_hat == BitVector.zeros(70)
    assert enc.distortion == 3 / 70
    assert channel_decode_threshold(code, s, 0.0, epsilon_n=3).status == "decoded"
    assert count_good_codewords(code, s, 2 / 70) == 0
    assert weight_enumerator_exact(code).counts.tolist() == [1] + [0] * 70


def test_infeasible_coset_raises():
    G = SparseBitMatrix.from_rows(6, 4, [[0], [1], [2], [3], [0, 1], [2, 3]])
    H = SparseBitMatrix.from_rows(2, 4, [[0, 1], [0, 1]])
    code = CompoundCode(G, H, k1=1)
    coset = coset_code(code, BitVector.from_string("1"))
    assert not coset.feasible
    s = BitVector.zeros(6)
    for call in (lambda: source_encode_exhaustive(code, s, coset),
                 lambda: channel_decode_ml(code, s, coset),
                 lambda: channel_decode_threshold(code, s, 0.1, constraint=coset),
                 lambda: count_good_codewords(code, s, 0.5, coset),
                 lambda: weight_enumerator_exact(code, coset)):
        with pytest.raises(ValueError, match="infeasible coset"):
            call()


def test_weight_enumerator_rejects_counts_that_do_not_divide():
    # y in {00, 11} -> x = 0 and y in {01, 10} -> x = 1111; dropping the
    # walk's last codeword leaves the weight-4 count odd.
    G = SparseBitMatrix.from_rows(4, 2, [[0, 1]] * 4)
    code = CompoundCode(G, SparseBitMatrix(0, 2, []), k1=0)
    kernel = codec._span_blocks

    def truncated(x0, images):
        for block in kernel(x0, images):
            yield block[:, :-1]

    with mock.patch.object(codec, "_span_blocks", truncated):
        with pytest.raises(RuntimeError, match="not multiples"):
            weight_enumerator_exact(code)


def oracle_moment_counts(params, D, trials, master_seed):
    """Per-trial (T, overlap) counts by the scalar walk, drawing as the codec does."""
    thr = weight_threshold(D, params.n)
    sample_conditional = codec._conditional_weight_sampler(params.n, thr)
    zero = BitVector.zeros(params.n).key()
    out = []
    for i in range(trials):
        rng = trial_rng(master_seed, i)
        code = assemble(params, k1=params.k, rng=rng)
        s = random_bitvector(params.n, rng)
        s_cond = sample_conditional(rng)
        xs = {x.key(): x for _, x in enumerate_codewords(code)}
        good = sum((x ^ s).weight() <= thr for x in xs.values())
        overlap = sum((x ^ s_cond).weight() <= thr for key, x in xs.items()
                      if key != zero)
        out.append((good, overlap))
    return out


@pytest.mark.parametrize("seed,D", [(1, 0.2), (4, 0.35), (8, 1.0)])
def test_moment_experiment_counts_match_the_walk(seed, D):
    params = EnsembleParams(n=12, m=6, k=3, d_top=3, dv=3, dc_prime=6, seed=seed)
    counts = np.array(oracle_moment_counts(params, D, 40, seed), dtype=float)
    est = moment_experiment(params, D, 40, seed)
    assert est.mean_T == counts[:, 0].mean()
    assert est.mean_T_squared == (counts[:, 0] ** 2).mean()
    assert est.mean_overlap_sum == counts[:, 1].mean()
