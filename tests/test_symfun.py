"""Symmetric functions, polynomial evaluation, power rows."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from privcoal import (
    ParameterError,
    PrimeField,
    as_track,
    elem_sym_all,
    poly_eval,
)

from oracles import elem_sym_subsets, eval_poly_int


def test_as_track_canonicalizes():
    f = PrimeField(13)
    assert as_track([12, 8, 5, 1], f) == (1, 5, 8, 12)
    with pytest.raises(ParameterError):
        as_track([0, 1], f)
    with pytest.raises(ParameterError):
        as_track([1, 1, 2], f)
    with pytest.raises(ParameterError):
        as_track([13], f)  # 13 is 0 mod 13
    with pytest.raises(ParameterError):
        as_track([], f)


def test_elem_sym_known_values():
    f7 = PrimeField(7)
    # (1,2,4): integer tau_2 = 14, divisible by 7
    assert elem_sym_all((1, 2, 4), f7)[2] == 0
    assert elem_sym_all((1, 2, 4), f7)[0] == 1
    # (1,5,8,12): integer tau_3 = 676 = 52 * 13
    f13 = PrimeField(13)
    assert elem_sym_subsets((1, 5, 8, 12), 3) == 676
    assert elem_sym_all((1, 5, 8, 12), f13)[3] == 0


def test_elem_sym_all_examples():
    f7 = PrimeField(7)
    assert elem_sym_all((1, 2, 4), f7) == (1, 0, 0, 1)
    assert elem_sym_all((5,), f7) == (1, 5)
    f17 = PrimeField(17)
    ladder = elem_sym_all((6, 7, 10, 11), f17)
    assert ladder[1] == ladder[2] == ladder[3] == 0


def test_elem_sym_matches_subset_definition_exhaustively():
    fields = [PrimeField(7), PrimeField(13), PrimeField(17)]
    for r in range(1, 7):
        for track in itertools.combinations(range(1, 14), r):
            integer_taus = [elem_sym_subsets(track, w) for w in range(r + 1)]
            for f in fields:
                assert elem_sym_all(track, f) == tuple(v % f.p for v in integer_taus)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6,
                unique=True))
def test_elem_sym_permutation_invariance(values):
    f = PrimeField(31)
    rng = random.Random(42)
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert elem_sym_all(values, f) == elem_sym_all(shuffled, f)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5,
                unique=True))
def test_sign_flip_identity(values):
    # prod(x - l) has coefficient of x^(r-w) equal to (-1)^w tau_w
    f = PrimeField(13)
    p = f.p
    coeffs = [1]  # descending powers of prod(x - l)
    for v in values:
        coeffs = [c % p for c in _poly_mul_linear(coeffs, -v, p)]
    r = len(values)
    taus = elem_sym_all(values, f)
    for w in range(r + 1):
        assert coeffs[w] == (-1) ** w * taus[w] % p


def _poly_mul_linear(coeffs, root_term, p):
    # multiply descending-power coeffs by (x + root_term)
    out = coeffs + [0]
    for i in range(len(coeffs)):
        out[i + 1] = (out[i + 1] + coeffs[i] * root_term) % p
    return out


def test_poly_eval_examples():
    f7 = PrimeField(7)
    assert eval_poly_int((1, 2, 3, 4, 5), 1, 7) == 1
    assert poly_eval((1, 2, 3, 4, 5), 1, f7) == 1
    assert poly_eval((4, 0, 0), 6, f7) == 4
    assert eval_poly_int((1, 2, 3, 4, 5), 4, 7) == 1593 % 7 == 4
    assert poly_eval((1, 2, 3, 4, 5), 4, f7) == 4


@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=7),
    st.integers(min_value=0, max_value=12),
)
def test_poly_eval_matches_integer_oracle(coeffs, x):
    f = PrimeField(13)
    assert poly_eval(coeffs, x, f) == eval_poly_int(coeffs, x, 13)

