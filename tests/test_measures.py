import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import segrent as sg
from segrent import measures

import oracles
from conftest import near_product_state


# frozen from the loop oracles (and exact arithmetic) before the build
BELL_E = 1.0
GHZ3_E = math.sqrt(1.5)
W3_E = math.sqrt(4.0 / 3.0)
BELL_F = 1.0
GHZ3_F = math.sqrt(3.0)


# ------------------------------------------------------------- frozen values

def test_named_values_slot_measure(bell, ghz3, w3):
    assert sg.measure_E(bell).value == pytest.approx(BELL_E, abs=1e-12)
    assert sg.measure_E(ghz3).value == pytest.approx(GHZ3_E, abs=1e-12)
    assert sg.measure_E(w3).value == pytest.approx(W3_E, abs=1e-12)


def test_named_values_exchange_measure(bell, ghz3):
    assert sg.measure_F(bell).value == pytest.approx(BELL_F, abs=1e-12)
    assert sg.measure_F(ghz3).value == pytest.approx(GHZ3_F, abs=1e-12)


def test_sums_match_loop_oracle(ghz3, w3):
    for st in (ghz3, w3):
        want, _ = oracles.brute_segre_sum_and_max(st.tensor)
        assert sg.measure_E(st).sum_of_squares == pytest.approx(want, abs=1e-13)
        want_f, _ = oracles.brute_perm_sum_and_max(st.tensor)
        assert sg.measure_F(st).sum_of_squares == pytest.approx(want_f, abs=1e-13)


def test_random_states_match_loop_oracle():
    for dims, seed in (((2, 3), 1), ((2, 2, 2), 2), ((3, 2, 2), 3)):
        st = sg.random_state("haar-pure", dims, seed=seed)
        want, _ = oracles.brute_segre_sum_and_max(st.tensor)
        assert sg.measure_E(st).sum_of_squares == pytest.approx(want, abs=1e-13)
        want_f, _ = oracles.brute_perm_sum_and_max(st.tensor)
        assert sg.measure_F(st).sum_of_squares == pytest.approx(want_f, abs=1e-13)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3)])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_sums_near_product_states_match_exact_sum(dims, eps):
    # the sums fall as eps^2 and their relative error grows about as 1/eps; worst
    # measured over these states: 1.5e-13, 1.7e-10 and 1.4e-7
    for seed in (1, 2, 3):
        st = near_product_state(dims, eps, seed)
        for measure, family in ((sg.measure_E, "slot"), (sg.measure_F, "class")):
            exact = oracles.exact_generator_sum(st.tensor, family)
            got = measure(st).sum_of_squares
            assert abs(float((Fraction(got) - exact) / exact)) <= 2e-15 / eps


# -------------------------------------------------------------- product zeros

@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (4, 4), (2, 2, 2, 2)])
def test_product_states_measure_zero(dims):
    for seed in range(5):
        st = sg.random_state("product", dims, seed=seed)
        assert sg.measure_E(st).value <= 1e-12
        assert sg.measure_F(st).value <= 1e-12


def test_product_vanishing_at_larger_scale():
    st = sg.random_state("product", (4, 4, 4, 4), seed=99)   # Pi N_j = 256
    assert sg.measure_E(st).value <= 1e-12
    assert sg.measure_F(st).value <= 1e-12


# -------------------------------------------------------- bipartite identities

def test_bipartite_equals_concurrence_oracle():
    for n1, n2 in itertools.product((2, 3, 4), repeat=2):
        for seed in range(3):
            st = sg.random_state("haar-pure", (n1, n2), seed=seed * 100 + n1 * 10 + n2)
            oracle = math.sqrt(2.0 * (1.0 - oracles.brute_purity(st.tensor, [0])))
            assert abs(sg.measure_E(st).value - oracle) <= 1e-10


def test_bipartite_exchange_equals_slot_measure():
    for n1, n2 in ((2, 2), (3, 2), (4, 4)):
        st = sg.random_state("haar-pure", (n1, n2), seed=n1 * 7 + n2)
        assert abs(sg.measure_F(st).value - sg.measure_E(st).value) <= 1e-12


def test_concurrence_oracle_values(bell):
    assert sg.bipartite_concurrence_oracle(bell) == pytest.approx(1.0, abs=1e-12)
    prod = sg.random_state("product", (3, 3), seed=1)
    assert sg.bipartite_concurrence_oracle(prod) <= 1e-7
    with pytest.raises(sg.DimensionError):
        sg.bipartite_concurrence_oracle(sg.named_state("ghz", (2, 2, 2)))


# ----------------------------------------------------------------- invariances

def test_global_phase_invariance(w3):
    base_e = sg.measure_E(w3).value
    base_f = sg.measure_F(w3).value
    for theta in (0.12, 1.7, 3.0):
        rot = sg.BoxTensor(w3.dims, np.exp(1j * theta) * w3.amps)
        assert abs(sg.measure_E(rot).value - base_e) <= 1e-12
        assert abs(sg.measure_F(rot).value - base_f) <= 1e-12


def test_party_relabeling_invariance():
    st = sg.random_state("haar-pure", (2, 3, 2), seed=55)
    base_e = sg.measure_E(st).value
    base_f = sg.measure_F(st).value
    for perm in itertools.permutations(range(3)):
        moved = sg.BoxTensor(tuple(st.dims[j] for j in perm),
                             np.transpose(st.tensor, perm).reshape(-1))
        assert abs(sg.measure_E(moved).value - base_e) <= 1e-12
        assert abs(sg.measure_F(moved).value - base_f) <= 1e-12


def test_basis_relabeling_invariance():
    st = sg.random_state("haar-pure", (3, 2, 2), seed=56)
    base_e = sg.measure_E(st).value
    base_f = sg.measure_F(st).value
    for axis, relabel in ((0, (2, 0, 1)), (1, (1, 0)), (2, (1, 0))):
        shuffled = sg.BoxTensor(st.dims, np.take(st.tensor, relabel,
                                                 axis=axis).reshape(-1))
        assert abs(sg.measure_E(shuffled).value - base_e) <= 1e-12
        assert abs(sg.measure_F(shuffled).value - base_f) <= 1e-12


METAMORPHIC_DIMS = [(2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 2, 2, 2, 2)]


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dims", METAMORPHIC_DIMS)
def test_local_unitary_invariance(dims):
    rng = np.random.default_rng(sum(dims) * 31 + len(dims))
    for seed in range(3):
        st = sg.random_state("haar-pure", dims, seed=seed + 200)
        t = st.tensor
        for j, n in enumerate(dims):
            t = np.moveaxis(np.tensordot(_haar_unitary(rng, n), t, axes=(1, j)), 0, j)
        moved = sg.BoxTensor(dims, t.reshape(-1))
        assert abs(sg.measure_E(moved).value - sg.measure_E(st).value) <= 1e-12
        assert abs(sg.measure_F(moved).value - sg.measure_F(st).value) <= 1e-12


@pytest.mark.parametrize("dims", METAMORPHIC_DIMS)
def test_party_permutation_invariance(dims):
    rng = np.random.default_rng(sum(dims) * 37 + len(dims))
    st = sg.random_state("haar-pure", dims, seed=300 + len(dims))
    base_e, base_f = sg.measure_E(st).value, sg.measure_F(st).value
    for _ in range(4):
        perm = [int(j) for j in rng.permutation(len(dims))]
        moved = sg.BoxTensor(tuple(dims[j] for j in perm),
                             np.transpose(st.tensor, perm).reshape(-1))
        assert abs(sg.measure_E(moved).value - base_e) <= 1e-12
        assert abs(sg.measure_F(moved).value - base_f) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 2, 2, 2)])
def test_exchange_dominates_slot_measure(dims):
    # the exchange families contain the slot families (up to complements),
    # so at default calibration F >= E for every state
    for seed in range(4):
        st = sg.random_state("haar-pure", dims, seed=seed + 60)
        assert sg.measure_F(st).value >= sg.measure_E(st).value - 1e-12


# ------------------------------------------------------------------ breakdowns

def test_breakdown_partials_sum(ghz3):
    cfg = sg.MeasureConfig(include_breakdown=True)
    rep_e = sg.measure_E(ghz3, cfg)
    assert set(rep_e.per_class) == {0, 1, 2}
    assert abs(sum(rep_e.per_class.values()) - rep_e.sum_of_squares) <= 1e-12
    rep_f = sg.measure_F(ghz3, cfg)
    assert {c.swap_set for c in rep_f.per_class} == {(0,), (1,), (0, 1)}
    assert abs(sum(rep_f.per_class.values()) - rep_f.sum_of_squares) <= 1e-12
    # each class contributes 1/2 on this state
    for val in rep_f.per_class.values():
        assert val == pytest.approx(0.5, abs=1e-12)


def test_breakdown_disabled_by_default(ghz3):
    assert sg.measure_E(ghz3).per_class is None


# ----------------------------------------------------------- config and errors

def test_normalization_override(bell):
    rep = sg.measure_E(bell, sg.MeasureConfig(normalization=4.0))
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(sg.ConfigError):
        sg.MeasureConfig(normalization=0.0)
    with pytest.raises(sg.ConfigError):
        sg.MeasureConfig(normalization=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(sg.ConfigError):
            sg.MeasureConfig(normalization=bad)


def test_normalization_overflow_refused(ghz3):
    for measure in (sg.measure_E, sg.measure_F):
        with pytest.raises(sg.ConfigError, match="overflows"):
            measure(ghz3, sg.MeasureConfig(normalization=1.7e308))


def test_unnormalized_input_rejected():
    st = sg.make_state((2, 2), [1, 0, 0, 1])
    with pytest.raises(sg.NormalizationError):
        sg.measure_E(st)
    with pytest.raises(sg.NormalizationError):
        sg.measure_F(st)
    with pytest.raises(sg.NormalizationError):
        sg.bipartite_concurrence_oracle(st)


def test_single_party_reports_zero_with_note():
    st = sg.make_state((4,), [1, 0, 0, 0])
    rep = sg.measure_E(st)
    assert rep.value == 0.0
    assert any("single-party" in n for n in rep.notes)
    assert sg.measure_F(st).value == 0.0


def test_four_party_note_on_slot_measure():
    st = sg.named_state("ghz", (2, 2, 2, 2))
    assert any("separability" in n for n in sg.measure_E(st).notes)
    assert sg.measure_F(st).notes == ()
    assert sg.measure_E(sg.named_state("ghz", (2, 2, 2))).notes == ()


def test_measures_refused_by_work_up_front(ghz3, monkeypatch):
    # each of the three (2 x 4 or 4 x 2) flattenings costs 2 * 4 * 2 = 16
    calls = []
    for name in ("slot_generator_sums", "class_generator_sums"):
        sums = getattr(measures, name)
        monkeypatch.setattr(measures, name,
                            lambda st, sums=sums: calls.append(1) or sums(st))
    monkeypatch.setattr(measures, "MEASURE_WORK_CAP", 47)
    for measure in (sg.measure_E, sg.measure_F):
        with pytest.raises(sg.DimensionError, match="48 > 47"):
            measure(ghz3)
    assert calls == []
    monkeypatch.setattr(measures, "MEASURE_WORK_CAP", 48)
    sg.measure_E(ghz3), sg.measure_F(ghz3)
    assert len(calls) == 2


def test_large_system_extended_precision_path():
    # Pi N_j = 1024; the m-party GHZ slot sum is m/2 exactly
    m = 10
    st = sg.named_state("ghz", (2,) * m)
    assert sg.measure_E(st).value == pytest.approx(math.sqrt(m / 2.0), abs=1e-12)
