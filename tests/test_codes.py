"""The integer-array code representation against the tuple oracles in
conftest: make_code, the code-file writer and reader, and the subspace proof
behind the minimum-weight distance, against set closure, the k-step
elimination and the pairwise scan."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agcodes import codes as codes_mod, kernels
from agcodes.codes import (
    Alphabet,
    build_goppa,
    code_from_text,
    code_to_text,
    exact_min_distance,
    finish_code,
    make_code,
)
from agcodes.combined import CombinedParams, build_combined
from agcodes.curves import build_curve
from agcodes.errors import PreconditionError, VerificationError
from agcodes.field import make_field, make_field_q
from agcodes.sections import build_section_code
from agcodes.xing import XingParams, build_xing
from conftest import (
    oracle_code_from_text,
    oracle_code_to_text,
    oracle_code_words,
    oracle_eliminate_subspace,
    oracle_is_subspace,
)

ALPHABETS = [Alphabet("field", 2), Alphabet("field", 3), Alphabet("field", 9),
             Alphabet("p1", 4), Alphabet("field", 256), Alphabet("p1", 257)]


def _random_words(rng, size, length, count):
    words = [tuple(rng.randrange(size) for _ in range(length)) for _ in range(count)]
    return words + words[: count // 3]  # repeats, so deduplication is exercised


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=lambda a: f"{a.kind}{a.size}")
def test_make_code_matches_tuple_oracle(alphabet):
    rng = random.Random(alphabet.size)
    for length in (1, 2, 5):
        words = _random_words(rng, alphabet.size, length, 40)
        expected = [list(w) for w in oracle_code_words(alphabet.size, length, words)]
        for given_words in (words, iter(words), np.array(words), np.array(words, dtype=np.uint64)):
            code = make_code(alphabet, length, given_words)
            assert code.words.tolist() == expected
            assert code.words.dtype == (np.uint8 if alphabet.size <= 256 else np.uint16)
            assert code.size == len(expected)
            assert not code.words.flags.writeable


@pytest.mark.parametrize("alphabet,length,words", [
    (Alphabet("field", 4), 3, [(0, 1, 2), (0, 1)]),
    (Alphabet("field", 4), 2, [(0, 1, 2)]),
    (Alphabet("field", 4), 2, [(0, -1)]),
    (Alphabet("field", 4), 2, [(0, 4)]),
    (Alphabet("field", 256), 1, [(256,)]),
    (Alphabet("p1", 4), 2, [(5, 0)]),
    (Alphabet("p1", 257), 1, [(258,)]),
    (Alphabet("p1", 257), 1, [(65536 + 3,)]),
    (Alphabet("field", 4), 2, np.array([[0, 1], [-1, 0]])),
    (Alphabet("field", 256), 2, np.array([[0, 256]])),
    (Alphabet("field", 4), 2, np.array([0, 1])),
], ids=["ragged", "long", "negative", "oversize", "uint8-wrap", "p1-oversize",
        "uint16-oversize", "uint16-wrap", "array-negative", "array-wrap", "array-1d"])
def test_make_code_rejects_what_the_oracle_rejects(alphabet, length, words):
    if not isinstance(words, np.ndarray):
        with pytest.raises(PreconditionError):
            oracle_code_words(alphabet.size, length, words)
    with pytest.raises(PreconditionError):
        make_code(alphabet, length, words)


def test_make_code_empty_and_length_zero():
    alpha = Alphabet("field", 4)
    for empty in ([], np.empty((0, 5), dtype=np.uint8)):
        code = make_code(alpha, 5, empty)
        assert code.words.shape == (0, 5) and code.size == 0
    zero = make_code(alpha, 0, [(), ()])
    assert zero.words.shape == (1, 0) and oracle_code_words(4, 0, [(), ()]) == [()]
    assert exact_min_distance(zero) is None


def test_finish_code_checks_injectivity_and_the_floor():
    alpha, words = Alphabet("field", 2), np.array([[1, 1, 1], [0, 0, 0]])
    with pytest.raises(VerificationError, match="not injective: 3 preimages, 2 words"):
        finish_code(alpha, 3, np.vstack([words, words[:1]]), None, {"claimed_distance": 1})
    assert finish_code(alpha, 3, words, None, {"claimed_distance": 3}).metadata[
        "measured_distance"] == 3
    with pytest.raises(VerificationError, match="measured distance 3 below the floor 4"):
        finish_code(alpha, 3, words, None, {"claimed_distance": 4})


def test_builder_refuses_a_repeated_word(monkeypatch):
    curve = build_curve("p1", make_field(5, 1))
    span = kernels.linear_span_words
    monkeypatch.setattr(kernels, "linear_span_words",
                        lambda F, rows: np.vstack([span(F, rows)[:-1], span(F, rows)[:1]]))
    with pytest.raises(VerificationError, match="not injective"):
        build_goppa(curve, curve.divisor({curve.place_inf(): 2}))


@pytest.fixture(scope="module")
def built_codes():
    """One code from each of the four builders (two Goppa codes)."""
    gf2, gf4 = build_curve("p1", make_field(2, 1)), build_curve("p1", make_field(2, 2))
    gf5, herm = build_curve("p1", make_field(5, 1)), build_curve("hermitian", make_field(2, 2))
    return {
        "goppa": build_goppa(gf5, gf5.divisor({gf5.place_inf(): 2})),
        "hermitian": build_goppa(herm, herm.one_point_divisor(3)),
        "section": build_section_code(gf4, gf4.zero_divisor(), 1),
        "xing": build_xing(gf2, gf2.zero_divisor(), XingParams(m=1, radii=(0,))).code,
        "combined": build_combined(gf4, gf4.zero_divisor(), CombinedParams(h=2, s0=1, d0=2)).code,
    }


@pytest.mark.parametrize("name", ["goppa", "hermitian", "section", "xing", "combined"])
def test_code_file_matches_tuple_oracle(built_codes, name):
    code = built_codes[name]
    text = code_to_text(code)
    assert text == oracle_code_to_text(code)
    kind, q, length, words, fld, meta = oracle_code_from_text(text)
    back = code_from_text(text)
    assert (back.alphabet.kind, back.alphabet.q, back.length) == (kind, q, length)
    assert back.words.tolist() == [list(w) for w in words]
    assert (back.field.p, back.field.degree) == fld and back.metadata == meta


def _perturbed(code, rng):
    """A copy of the word set with one word replaced by a random word."""
    words = code.words.tolist()
    words[rng.randrange(1, len(words))] = [rng.randrange(code.alphabet.q)
                                           for _ in range(code.length)]
    return make_code(code.alphabet, code.length, words, field=code.field,
                     metadata=code.metadata)


def _route(code, monkeypatch):
    """closest_pair's answer and whether it ran the pairwise scan."""
    calls = []
    scan = kernels.pairwise_min_distance
    monkeypatch.setattr(kernels, "pairwise_min_distance", lambda arr: calls.append(1) or scan(arr))
    found = codes_mod.closest_pair(code)
    monkeypatch.undo()
    return found, bool(calls)


def test_subspace_proof_on_built_and_perturbed_codes(built_codes, monkeypatch):
    rng = random.Random(7)
    herm9 = build_curve("hermitian", make_field(3, 2))
    big = build_goppa(herm9, herm9.one_point_divisor(4))
    linear = [built_codes["goppa"], built_codes["hermitian"], big]
    candidates = list(linear)
    for code in linear:
        for _ in range(6):
            perturbed = _perturbed(code, rng)
            assert not np.array_equal(perturbed.words, code.words)
            candidates.append(perturbed)
        # without the zero word: shift the first symbol of every word by one,
        # a weight-1 shift below the distance, so it is not a code word
        shifted = make_code(code.alphabet, code.length,
                            [[code.field.add(w[0], 1)] + w[1:] for w in code.words.tolist()],
                            field=code.field, metadata=code.metadata)
        candidates.append(shifted)
    verdicts = [codes_mod.subspace_proof(code) for code in candidates]
    for code, verdict in zip(candidates, verdicts):
        if code.size <= 125:  # the set-closure oracle is quadratic in the words
            assert verdict == oracle_is_subspace(code.words.tolist(), code.field)
    # q^k words, so one changed word leaves no subspace; nor does a coset
    assert verdicts == [True] * 3 + [False] * (len(candidates) - 3)
    # a field without lookup tables is not proven, though it is a subspace
    gf257 = make_code(Alphabet("field", 257), 4, [[c, 2 * c % 257, 0, c] for c in range(257)],
                      field=make_field(257, 1), metadata={"linear": True})
    assert not codes_mod.subspace_proof(gf257)
    # nor is a field alphabet that is not the field's own
    gf3_as_5 = make_code(Alphabet("field", 5), 2, [[0, 0], [1, 4], [2, 3]],
                         field=make_field(3, 1), metadata={"linear": True})
    assert not codes_mod.subspace_proof(gf3_as_5)
    # nor a code file that names no field
    text = code_to_text(built_codes["goppa"])
    fieldless = code_from_text("\n".join(line for line in text.splitlines()
                                         if not line.startswith(("p:", "alpha:", "modulus:"))))
    assert fieldless.field is None and not codes_mod.subspace_proof(fieldless)
    assert np.array_equal(fieldless.words, built_codes["goppa"].words)
    # the proven codes skip the pairwise scan; every other code falls back
    # to it, and both routes give the scan's distance and pair
    for code in candidates + [gf257, gf3_as_5, fieldless]:
        found, scanned = _route(code, monkeypatch)
        assert scanned == (not codes_mod.subspace_proof(code))
        assert found == kernels.pairwise_min_distance(code.words)
        assert exact_min_distance(code) == found[0]


_SPAN_VARIANTS = ["span", "dependent", "symbol", "coset", "extra", "union"]


def _span_code(q, n, k, variant, seed):
    """The span of k random rows of GF(q)^n, or one of its near misses."""
    F = make_field_q(q)
    rng = random.Random(seed)

    def vector():
        return [rng.randrange(q) for _ in range(n)]

    rows = [vector() for _ in range(k)]
    if variant == "dependent" and rows:  # rank-deficient: the last row depends on the rest
        rows[-1] = [0] * n
        for row in rows[:-1]:
            c = rng.randrange(q)
            rows[-1] = [F.add(x, F.mul(c, y)) for x, y in zip(rows[-1], row)]
    words = kernels.linear_span_words(F, rows) if rows else np.zeros((1, n), dtype=np.uint8)
    if variant == "symbol":
        i, j = rng.randrange(len(words)), rng.randrange(n)
        words[i, j] = (int(words[i, j]) + rng.randrange(1, q)) % q
    elif variant == "coset":
        shift = np.array(vector(), dtype=np.uint8)
        words = np.array([[F.add(int(a), int(b)) for a, b in zip(w, shift)] for w in words])
    elif variant == "extra":
        words = np.vstack([words, vector()])
    elif variant == "union":
        # q cosets of the span of the first k - 1 rows, one of them itself
        base = (kernels.linear_span_words(F, rows[:-1]) if k > 1
                else np.zeros((1, n), dtype=np.uint8))
        shifts = [[0] * n] + [vector() for _ in range(q - 1 if k else 0)]
        words = np.array([[F.add(int(a), b) for a, b in zip(w, v)] for v in shifts for w in base])
    return make_code(Alphabet("field", q), n, words, field=F)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 5, 8, 9]),
    st.integers(1, 10),
    st.integers(0, 4),
    st.sampled_from(_SPAN_VARIANTS),
    st.integers(0, 2 ** 32),
)
@example(2, 3, 1, "union", 1)
@example(3, 1, 2, "span", 0)
@example(9, 10, 4, "symbol", 0)
def test_subspace_proof_matches_set_closure(q, n, k, variant, seed):
    code = _span_code(q, n, k, variant, seed)
    if code.size <= 125:  # the set-closure oracle is quadratic in the words
        assert codes_mod.subspace_proof(code) == oracle_is_subspace(code.words.tolist(),
                                                                    code.field)
    assert codes_mod.closest_pair(code) == kernels.pairwise_min_distance(code.words)


# (q, the largest k with q^k <= 6561)
_SPAN_ORDERS = {2: 12, 3: 8, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_SPAN_ORDERS)).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(0, _SPAN_ORDERS[q]))),
    st.integers(1, 27),
    st.sampled_from(_SPAN_VARIANTS),
    st.integers(0, 2 ** 32),
)
@example((9, 4), 27, "span", 0)
@example((9, 4), 27, "symbol", 1)
@example((3, 8), 9, "coset", 2)
@example((3, 8), 10, "union", 3)
@example((2, 12), 12, "extra", 4)
@example((2, 7), 5, "dependent", 5)
def test_is_subspace_matches_the_elimination_oracle(qk, n, variant, seed):
    # spans of up to 6561 words, past the set-closure oracle's reach, and
    # their near misses: one symbol changed, a coset, an extra row, a union
    # of cosets, a rank-deficient basis
    q, k = qk
    code = _span_code(q, n, k, variant, seed)
    expected = oracle_eliminate_subspace(code.words, code.field)
    assert kernels.is_subspace(code.words, code.field) == expected
    # the proof needs no row order but the zero row first
    words = code.words
    shuffled = np.vstack([words[:1], np.random.default_rng(seed).permutation(words[1:])])
    assert kernels.is_subspace(shuffled, code.field) == expected


def _codes_strategy():
    def build(kind, q, length, n_words, seed, claimed, linear):
        size = q if kind == "field" else q + 1
        rng = random.Random(seed)
        words = [[rng.randrange(size) for _ in range(length)] for _ in range(n_words)]
        meta = {"claimed_distance": claimed, "construction": "random", "linear": linear}
        return make_code(Alphabet(kind, q), length, words, field=make_field_q(q), metadata=meta)

    return st.builds(
        build,
        st.sampled_from(["field", "p1"]),
        st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 16, 101, 256, 257, 65521]),
        st.integers(0, 6),
        st.integers(0, 30),
        st.integers(0, 2 ** 32),
        st.one_of(st.none(), st.integers(0, 6)),
        st.booleans(),
    )


@settings(max_examples=60, deadline=None)
@given(_codes_strategy())
@example(make_code(Alphabet("p1", 257), 3, [(256, 257, 0), (1, 2, 3)], field=make_field(257, 1)))
@example(make_code(Alphabet("p1", 101), 2, [(9, 10), (99, 101)], field=make_field(101, 1)))
@example(make_code(Alphabet("p1", 65521), 3, [(65521, 9, 0), (10, 65520, 9999)],
                   field=make_field(65521, 1)))
@example(make_code(Alphabet("field", 4), 0, [()], field=make_field(2, 2)))
@example(make_code(Alphabet("p1", 3), 4, [], field=make_field(3, 1)))
@example(make_code(Alphabet("field", 11), 3, [(10, 0, 7), (1, 9, 10)], field=make_field(11, 1)))
def test_code_file_roundtrip_property(code):
    text = code_to_text(code)
    assert text == oracle_code_to_text(code)
    back = code_from_text(text)
    assert back.words.dtype == code.words.dtype and np.array_equal(back.words, code.words)
    assert back.alphabet == code.alphabet and back.length == code.length
    assert back.field is code.field
    assert code_to_text(back) == text
    kind, q, length, words, _, meta = oracle_code_from_text(text)
    assert back.words.tolist() == [list(w) for w in words] and back.metadata == meta
