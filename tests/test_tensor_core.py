import itertools
import math

import numpy as np
import pytest

import segrent as sg

import oracles


# ----------------------------------------------------------------- make_state

def test_make_state_basis():
    st = sg.make_state((2, 2), [1, 0, 0, 0], normalize=True)
    assert st.amps[0] == 1.0
    assert np.all(st.amps[1:] == 0.0)


def test_make_state_normalizes():
    st = sg.make_state((2, 2), [1, 0, 0, 1], normalize=True)
    s2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(st.amps, [s2, 0, 0, s2], atol=1e-15)
    assert st.is_normalized()


def test_make_state_keeps_unnormalized_input():
    st = sg.make_state((2,), [2.0, 0.0])
    assert st.amps[0] == 2.0
    assert not st.is_normalized()


def test_make_state_length_mismatch():
    with pytest.raises(sg.DimensionError):
        sg.make_state((2, 2), [1, 0, 0])


def test_make_state_zero_vector_rejected():
    with pytest.raises(sg.DegenerateStateError):
        sg.make_state((2, 2), [0, 0, 0, 0], normalize=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(sg.DegenerateStateError):
        sg.BoxTensor((2, 2), [bad, 0.5, 0.5, 0.5])


def test_normalize_is_idempotent_exactly():
    rng = np.random.default_rng(42)
    for _ in range(20):
        raw = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        once = sg.make_state((3, 4), raw, normalize=True)
        twice = once.normalized()
        assert np.array_equal(once.amps, twice.amps)


def test_amps_are_immutable(bell):
    with pytest.raises(ValueError):
        bell.amps[0] = 0.0


# ------------------------------------------------------------------ dims/index

def test_dims_validation():
    with pytest.raises(sg.DimensionError):
        sg.Dims(())
    with pytest.raises(sg.DimensionError):
        sg.Dims((2, 1))
    d = sg.Dims((2, 3, 2))
    assert d.m == 3 and d.total == 12


@pytest.mark.parametrize("multi,dims,expect", [
    ((0, 0), (2, 2), 0),
    ((1, 1), (2, 2), 3),
    ((1, 0, 1), (2, 2, 2), 5),
    ((2, 1), (3, 2), 5),
])
def test_flat_index_values(multi, dims, expect):
    assert sg.flat_index(multi, dims) == expect


def test_flat_index_out_of_range():
    with pytest.raises(sg.DimensionError):
        sg.flat_index((0, 2), (2, 2))
    with pytest.raises(sg.DimensionError):
        sg.flat_index((0,), (2, 2))


@pytest.mark.parametrize("dims", [(2, 2), (3, 3, 3), (2, 3, 4),
                                  (2,) * 12, (4, 4, 4, 4, 4, 4)])
def test_flat_index_bijection(dims):
    # exhaustive for Pi N_j up to 4096
    seen = set()
    for multi in itertools.product(*[range(n) for n in dims]):
        flat = sg.flat_index(multi, dims)
        assert sg.multi_index(flat, dims) == multi
        seen.add(flat)
    assert seen == set(range(math.prod(dims)))


# ---------------------------------------------------------------- segre_embed

def test_segre_embed_basis_product():
    st = sg.segre_embed([(1, 0), (1, 0)])
    assert st.amps[0] == 1.0 and np.all(st.amps[1:] == 0.0)


def test_segre_embed_plus_zero():
    s2 = 1.0 / math.sqrt(2.0)
    st = sg.segre_embed([(s2, s2), (1, 0)])
    assert np.allclose(st.amps, [s2, 0, s2, 0], atol=1e-15)


def test_segre_embed_entrywise_products():
    rng = np.random.default_rng(7)
    factors = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for n in (2, 3, 2)]
    st = sg.segre_embed(factors)
    for multi in itertools.product(range(2), range(3), range(2)):
        expect = factors[0][multi[0]] * factors[1][multi[1]] * factors[2][multi[2]]
        assert st.tensor[multi] == pytest.approx(expect, abs=1e-14)


def test_segre_embed_zero_factor():
    with pytest.raises(sg.DegenerateStateError):
        sg.segre_embed([(1, 0), (0, 0)])


def test_segre_embed_output_is_rank_one():
    st = sg.random_state("product", (2, 2, 3), seed=5)
    assert sg.segre_residual(st).residual <= 1e-12


# -------------------------------------------------------------- reduced_purity

def test_reduced_purity_bell(bell):
    assert sg.reduced_purity(bell, [0]) == pytest.approx(0.5, abs=1e-12)
    assert sg.reduced_purity(bell, [1]) == pytest.approx(0.5, abs=1e-12)


def test_reduced_purity_ghz(ghz3):
    assert sg.reduced_purity(ghz3, [0]) == pytest.approx(0.5, abs=1e-12)


def test_reduced_purity_product_state():
    st = sg.random_state("product", (2, 3, 2), seed=2)
    for subset in ([0], [1], [2], [0, 1], [0, 2]):
        assert sg.reduced_purity(st, subset) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 2, 2)])
def test_reduced_purity_matches_loop_oracle(dims):
    st = sg.random_state("haar-pure", dims, seed=hash(dims) & 0xFFFF)
    for size in range(1, len(dims)):
        for subset in itertools.combinations(range(len(dims)), size):
            got = sg.reduced_purity(st, subset)
            want = oracles.brute_purity(st.tensor, list(subset))
            assert got == pytest.approx(want, abs=1e-12)


def test_reduced_purity_complement_symmetry():
    st = sg.random_state("haar-pure", (2, 3, 4), seed=9)
    for subset in ([0], [1], [0, 2]):
        comp = [j for j in range(3) if j not in subset]
        assert abs(sg.reduced_purity(st, subset)
                   - sg.reduced_purity(st, comp)) <= 1e-12


def test_reduced_purity_bad_subsets(bell):
    with pytest.raises(sg.PartitionError):
        sg.reduced_purity(bell, [])
    with pytest.raises(sg.PartitionError):
        sg.reduced_purity(bell, [0, 1])
    with pytest.raises(sg.PartitionError):
        sg.reduced_purity(bell, [3])


# ---------------------------------------------------------------- named states

def test_named_bell_amplitudes(bell):
    s2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(bell.amps, [s2, 0, 0, s2], atol=1e-15)


def test_named_bell_qutrits():
    st = sg.named_state("bell", (3, 3))
    s3 = 1.0 / math.sqrt(3.0)
    for i in range(3):
        assert st.tensor[i, i] == pytest.approx(s3, abs=1e-15)


def test_named_ghz_amplitudes(ghz3):
    s2 = 1.0 / math.sqrt(2.0)
    assert ghz3.tensor[0, 0, 0] == pytest.approx(s2, abs=1e-15)
    assert ghz3.tensor[1, 1, 1] == pytest.approx(s2, abs=1e-15)
    assert np.count_nonzero(ghz3.amps) == 2


def test_named_w_amplitudes(w3):
    s3 = 1.0 / math.sqrt(3.0)
    for multi in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert w3.tensor[multi] == pytest.approx(s3, abs=1e-15)
    assert np.count_nonzero(w3.amps) == 3


def test_named_basis_product():
    st = sg.named_state("basis-product", (3, 2, 2))
    assert st.amps[0] == 1.0 and np.count_nonzero(st.amps) == 1


@pytest.mark.parametrize("name,dims", [
    ("bell", (2, 3)), ("bell", (2, 2, 2)), ("ghz", (3, 3)),
    ("w", (2,)), ("nope", (2, 2)),
])
def test_named_state_unsupported(name, dims):
    with pytest.raises(sg.UnsupportedStateError):
        sg.named_state(name, dims)


# --------------------------------------------------------------- random states

def test_random_state_deterministic():
    a = sg.random_state("haar-pure", (2, 3), seed=123)
    b = sg.random_state("haar-pure", (2, 3), seed=123)
    assert np.array_equal(a.amps, b.amps)
    c = sg.random_state("haar-pure", (2, 3), seed=124)
    assert not np.array_equal(a.amps, c.amps)


def test_random_product_deterministic_and_rank_one():
    a = sg.random_state("product", (2, 2, 2), seed=77)
    b = sg.random_state("product", (2, 2, 2), seed=77)
    assert np.array_equal(a.amps, b.amps)
    assert sg.segre_residual(a).residual <= 1e-12


def test_random_mixed_is_valid_density():
    rho = sg.random_state("mixed", (2, 2), seed=5)
    assert isinstance(rho, sg.DensityMatrix)
    rho2 = sg.random_state("mixed", (2, 2), seed=5, rank=2)
    assert np.linalg.matrix_rank(rho2.mat, tol=1e-10) == 2


def test_random_state_negative_seed_ok():
    st = sg.random_state("haar-pure", (2, 2), seed=-3)
    assert st.is_normalized()


def test_random_state_unknown_kind():
    with pytest.raises(sg.UnsupportedStateError):
        sg.random_state("thermal", (2, 2), seed=0)


# --------------------------------------------------- density and decomposition

def test_density_matrix_validation():
    good = np.eye(4) / 4.0
    sg.DensityMatrix((2, 2), good)
    with pytest.raises(sg.DensityMatrixError):
        sg.DensityMatrix((2, 2), np.eye(4))                  # trace 4
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.5                                          # not Hermitian
    with pytest.raises(sg.DensityMatrixError):
        sg.DensityMatrix((2, 2), bad)
    indef = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)   # negative eigenvalue
    with pytest.raises(sg.DensityMatrixError):
        sg.DensityMatrix((2, 2), indef)
    with pytest.raises(sg.DimensionError):
        sg.DensityMatrix((2, 2), np.eye(3) / 3.0)
    for bad in (np.nan, np.inf):
        nonfinite = np.eye(4) / 4.0
        nonfinite[1, 1] = bad
        with pytest.raises(sg.DensityMatrixError):
            sg.DensityMatrix((2, 2), nonfinite)


def test_density_from_state(bell):
    rho = bell.density()
    assert rho.purity == pytest.approx(1.0, abs=1e-12)


def test_purity_of_complex_states():
    pure = sg.random_state("haar-pure", (2, 2), seed=1).density()
    mixed = sg.random_state("mixed", (2, 3), seed=4, rank=3)
    for rho in (pure, mixed):
        assert rho.purity == pytest.approx(np.sum(np.abs(rho.mat) ** 2), abs=1e-14)
    assert pure.purity == pytest.approx(1.0, abs=1e-12)
    assert mixed.purity < 1.0 - 1e-3


def test_density_refuses_non_unit_state():
    # same policy as the measures: no silent rescaling before the roof
    with pytest.raises(sg.NormalizationError, match="unit-norm"):
        sg.BoxTensor((2, 2), [1.0, 0.0, 0.0, 1.0]).density()


def test_decomposition_validation(bell, ghz3):
    sg.Decomposition((1.0,), (bell,))
    with pytest.raises(sg.DimensionError):
        sg.Decomposition((0.5, 0.6), (bell, bell))           # weights sum > 1
    with pytest.raises(sg.DimensionError):
        sg.Decomposition((1.0, -0.0), (bell, bell))          # nonpositive weight
    with pytest.raises(sg.DimensionError):
        sg.Decomposition((0.5, 0.5), (bell, ghz3))           # dims mismatch
    with pytest.raises(sg.DegenerateStateError):
        sg.Decomposition((1.0,), (sg.make_state((2, 2), [1, 1, 0, 0]),))


def test_decomposition_mixture_reconstructs(bell):
    other = sg.make_state((2, 2), [1, 1, 1, 1], normalize=True)
    dec = sg.Decomposition((0.25, 0.75), (bell, other))
    rho = dec.mixture()
    expect = 0.25 * np.outer(bell.amps, bell.amps.conj()) \
        + 0.75 * np.outer(other.amps, other.amps.conj())
    assert np.max(np.abs(rho.mat - expect)) <= 1e-12
