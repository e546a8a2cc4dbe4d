import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import segrent as sg
from segrent import cli, segre_ideal

import oracles


# ----------------------------------------------------------------- enumeration

def test_generator_count_two_qubits():
    specs = sg.enumerate_segre_generators((2, 2))
    assert len(specs) == 4
    as_tuples = {(s.slot, s.pair) for s in specs}
    assert as_tuples == {
        (0, ((0, 0), (1, 1))), (0, ((0, 1), (1, 0))),
        (1, ((0, 0), (1, 1))), (1, ((0, 1), (1, 0))),
    }


def test_generator_count_three_qubits():
    assert len(sg.enumerate_segre_generators((2, 2, 2))) == 36


def test_generator_single_party_empty():
    assert sg.enumerate_segre_generators((2,)) == []


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 3), (2, 3, 4), (4, 3), (2, 2, 2, 2)])
def test_generators_match_loop_oracle(dims):
    got = [(s.slot, s.pair[0], s.pair[1]) for s in sg.enumerate_segre_generators(dims)]
    assert got == oracles.brute_segre_pairs(dims)


def test_enumeration_is_deterministic_lexicographic():
    specs = sg.enumerate_segre_generators((2, 2))
    assert [(s.slot, s.pair) for s in specs] == sorted((s.slot, s.pair) for s in specs)


def test_materialization_cap():
    with pytest.raises(sg.DimensionError):
        sg.enumerate_segre_generators((2,) * 13)
    # the streaming form still works above the cap
    first = next(iter(sg.iter_segre_generators((2,) * 13)))
    assert first.slot == 0


def test_first_generator_memory_does_not_grow():
    # the pairs are walked in 512-pair blocks, never one multi-index list of every index
    # (about 12 MB at 16 qubits) nor a 2^20-pair block (42 MB)
    for qubits in (12, 13, 14, 16):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            first = next(sg.iter_segre_generators((2,) * qubits))
            assert time.perf_counter() - start < 1.0
            assert tracemalloc.get_traced_memory()[1] < 4e6
        finally:
            tracemalloc.stop()
        assert first == sg.MinorSpec(0, ((0,) * qubits, (1,) + (0,) * (qubits - 2) + (1,)))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 3, 2), (2, 2, 2, 2)])
def test_generator_count_formula(dims):
    specs = sg.enumerate_segre_generators(dims)
    per_slot = segre_ideal.slot_generator_counts(dims)
    assert sum(per_slot) == len(specs)
    assert per_slot == [sum(s.slot == j for s in specs) for j in range(len(dims))]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_pair_walk_is_the_triangle_in_order(n):
    want = list(zip(*(z.tolist() for z in np.triu_indices(n, 1))))
    for budget in (1, 5, math.comb(n, 2), 1 << 20):
        blocks = list(segre_ideal._row_pairs((n,), budget))
        assert all(0 < x.size <= max(1, budget) for x, _ in blocks)
        assert [p for x, y in blocks for p in zip(x.tolist(), y.tolist())] == want


@pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2, 2), (2, 2, 2, 2), (3, 3, 3), (4, 2, 3)])
def test_row_pair_builder_is_the_kept_triangle_in_order(shape):
    # each kept pair once, r1 < r2, in full blocks; past one slot no caller reads the order
    # (test_pair_walk_is_the_triangle_in_order pins the one-slot order)
    every = list(itertools.product(*map(range, shape)))
    want = {(every.index(k), every.index(l)) for k, l in itertools.combinations(every, 2)
            if all(x != y for x, y in zip(k, l))}
    for budget in (1, 7, 1 << 20):
        blocks = list(segre_ideal._row_pairs(shape, budget))
        assert all(0 < r1.size <= budget for r1, _ in blocks)
        assert all(r1.size == budget for r1, _ in blocks[:-1])    # kept pairs fill each block
        got = [p for r1, r2 in blocks for p in zip(r1.tolist(), r2.tolist())]
        assert set(got) == want and len(got) == len(want)
        assert all(r1 < r2 for r1, r2 in got)


def test_minor_spec_invariants():
    with pytest.raises(sg.GeneratorSpecError):
        sg.MinorSpec(0, ((1, 1), (0, 0)))        # not lexicographic
    with pytest.raises(sg.GeneratorSpecError):
        sg.MinorSpec(1, ((0, 0), (1, 0)))        # equal at the slot
    with pytest.raises(sg.GeneratorSpecError):
        sg.MinorSpec(0, ((0, 0), (0, 0)))        # identical tuples
    for slot in (-1, 2):                         # no such slot
        with pytest.raises(sg.GeneratorSpecError):
            sg.MinorSpec(slot, ((0, 0), (1, 1)))


def test_perm_class_enumeration():
    assert [c.swap_set for c in sg.enumerate_perm_classes(2)] == [(0,)]
    assert [c.swap_set for c in sg.enumerate_perm_classes(3)] == [(0,), (1,), (0, 1)]
    assert len(sg.enumerate_perm_classes(4)) == 7
    assert sg.enumerate_perm_classes(1) == []
    assert [c.swap_set for c in sg.enumerate_perm_classes(4)] == \
        oracles.brute_canonical_subsets(4)
    for swap in ((), (-1,)):
        with pytest.raises(sg.GeneratorSpecError):
            sg.PermClass(swap)
    with pytest.raises(sg.DimensionError):
        sg.enumerate_perm_classes(0)


# ------------------------------------------------------------------ evaluation

def test_minor_bell(bell):
    val = sg.evaluate_minor(bell, sg.MinorSpec(0, ((0, 0), (1, 1))))
    assert val == pytest.approx(0.5, abs=1e-12)


def test_minor_ghz(ghz3):
    assert sg.evaluate_minor(ghz3, sg.MinorSpec(0, ((0, 0, 0), (1, 1, 1)))) \
        == pytest.approx(0.5, abs=1e-12)
    assert sg.evaluate_minor(ghz3, sg.MinorSpec(0, ((0, 0, 1), (1, 1, 0)))) \
        == pytest.approx(0.0, abs=1e-15)


def test_minor_vanishes_on_embedding():
    st = sg.random_state("product", (2, 2, 2), seed=3)
    for spec in sg.enumerate_segre_generators((2, 2, 2)):
        assert abs(sg.evaluate_minor(st, spec)) <= 1e-13


def test_minor_matches_loop_oracle():
    st = sg.random_state("haar-pure", (2, 3, 2), seed=8)
    for spec in sg.enumerate_segre_generators((2, 3, 2)):
        want = oracles.slot_minor(st.tensor, spec.slot, *spec.pair)
        assert sg.evaluate_minor(st, spec) == pytest.approx(want, abs=1e-14)


def test_minor_spec_dims_mismatch(bell):
    with pytest.raises(sg.GeneratorSpecError):
        sg.evaluate_minor(bell, sg.MinorSpec(2, ((0, 0, 0), (1, 1, 1))))
    with pytest.raises(sg.GeneratorSpecError):
        sg.evaluate_minor(bell, sg.MinorSpec(0, ((0, 0), (2, 1))))


def test_perm_minor_ghz_full_swap(ghz3):
    val = sg.evaluate_perm_minor(ghz3, sg.PermClass((0, 1)), ((0, 0, 0), (1, 1, 1)))
    assert val == pytest.approx(0.5, abs=1e-12)


def test_perm_minor_identity_swap_is_zero(ghz3):
    # pair agreeing on the swapped slots: the exchange does nothing
    val = sg.evaluate_perm_minor(ghz3, sg.PermClass((0,)), ((0, 0, 0), (0, 1, 1)))
    assert val == 0.0


def test_perm_minor_singleton_equals_slot_minor(bell):
    assert sg.evaluate_perm_minor(bell, sg.PermClass((0,)), ((0, 0), (1, 1))) \
        == sg.evaluate_minor(bell, sg.MinorSpec(0, ((0, 0), (1, 1))))


def test_perm_minor_singletons_match_all_slot_minors():
    st = sg.random_state("haar-pure", (2, 2, 3), seed=21)
    for spec in sg.enumerate_segre_generators((2, 2, 3)):
        assert sg.evaluate_perm_minor(st, (spec.slot,), spec.pair) \
            == sg.evaluate_minor(st, spec)


def test_perm_minor_complement_symmetry_exhaustive():
    # every pair, every proper subset vs its complement, all qubit counts <= 4
    for m in (2, 3, 4):
        st = sg.random_state("haar-pure", (2,) * m, seed=100 + m)
        indices = list(itertools.product(range(2), repeat=m))
        subsets = [s for r in range(1, m)
                   for s in itertools.combinations(range(m), r)]
        for k, l in itertools.combinations(indices, 2):
            for subset in subsets:
                comp = tuple(j for j in range(m) if j not in subset)
                assert sg.evaluate_perm_minor(st, subset, (k, l)) \
                    == sg.evaluate_perm_minor(st, comp, (k, l))


def test_perm_minor_rejects_bad_swaps(ghz3):
    with pytest.raises(sg.GeneratorSpecError):
        sg.evaluate_perm_minor(ghz3, (), ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(sg.GeneratorSpecError):
        sg.evaluate_perm_minor(ghz3, (0, 1, 2), ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(sg.GeneratorSpecError):
        sg.evaluate_perm_minor(ghz3, (5,), ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(sg.GeneratorSpecError):
        sg.evaluate_perm_minor(ghz3, (-1, 0), ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(sg.GeneratorSpecError):
        sg.evaluate_perm_minor(ghz3, (0,), ((0, 0, 0), (0, 0, 0)))


# ------------------------------------------------------------------- residuals

def test_segre_residual_product_state():
    rep = sg.segre_residual(sg.random_state("product", (2, 3, 2), seed=4))
    assert rep.residual <= 1e-12
    assert rep.is_member


def test_segre_residual_bell(bell):
    rep = sg.segre_residual(bell)
    assert rep.residual == pytest.approx(0.5, abs=1e-12)
    assert not rep.is_member
    assert isinstance(rep.worst, sg.MinorSpec)
    assert abs(sg.evaluate_minor(bell, rep.worst)) == pytest.approx(rep.residual)


def test_segre_residual_w3(w3):
    rep = sg.segre_residual(w3)
    assert rep.residual == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_segre_residual_matches_loop_oracle():
    st = sg.random_state("haar-pure", (2, 2, 3), seed=31)
    _, want = oracles.brute_segre_sum_and_max(st.tensor)
    assert sg.segre_residual(st).residual == pytest.approx(want, abs=1e-13)


def test_segre_residual_single_party(tmp_path, capsys):
    st = sg.make_state((3,), [1, 0, 0])
    for rep in (sg.segre_residual(st), sg.t_variety_residual(st)):
        assert rep.residual == 0.0 and rep.is_member and rep.worst is None
    path = tmp_path / "one.json"
    cli.write_state_file(str(path), st)
    assert cli.main(["separable", "--in", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["segre"]["worst"] is None and results["t_variety"]["worst"] is None


def test_t_residual_product_state():
    rep = sg.t_variety_residual(sg.random_state("product", (2, 2, 2, 2), seed=6))
    assert rep.residual <= 1e-12


def test_t_residual_ghz(ghz3):
    rep = sg.t_variety_residual(ghz3)
    assert rep.residual == pytest.approx(0.5, abs=1e-12)
    perm_class, pair = rep.worst
    assert abs(sg.evaluate_perm_minor(ghz3, perm_class, pair)) \
        == pytest.approx(rep.residual)


def test_t_residual_matches_loop_oracle():
    st = sg.random_state("haar-pure", (2, 2, 2), seed=32)
    _, want = oracles.brute_perm_sum_and_max(st.tensor)
    assert sg.t_variety_residual(st).residual == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_t_residual_dominates_segre_residual(seed):
    st = sg.random_state("haar-pure", (2, 2, 2), seed=seed)
    assert sg.t_variety_residual(st).residual \
        >= sg.segre_residual(st).residual - 1e-13


def test_residual_global_phase_invariance(w3):
    base = sg.segre_residual(w3).residual
    for theta in (0.3, 1.1, 2.9):
        rotated = sg.BoxTensor(w3.dims, np.exp(1j * theta) * w3.amps)
        assert abs(sg.segre_residual(rotated).residual - base) <= 1e-12
        assert abs(sg.t_variety_residual(rotated).residual
                   - sg.t_variety_residual(w3).residual) <= 1e-12


def test_residual_axis_permutation_invariance():
    st = sg.random_state("haar-pure", (2, 3, 2), seed=17)
    for perm in itertools.permutations(range(3)):
        permuted = sg.BoxTensor(
            tuple(st.dims[j] for j in perm),
            np.transpose(st.tensor, perm).reshape(-1))
        assert abs(sg.segre_residual(permuted).residual
                   - sg.segre_residual(st).residual) <= 1e-12
        assert abs(sg.t_variety_residual(permuted).residual
                   - sg.t_variety_residual(st).residual) <= 1e-12


def test_zero_residual_iff_rank_one():
    # zero residual: a rank-one reconstruction reproduces the state
    for dims, seed in (((2, 2), 1), ((2, 3, 2), 2), ((3, 3, 3), 3)):
        st = sg.random_state("product", dims, seed=seed)
        assert sg.segre_residual(st).residual <= 1e-12
        recon = oracles.brute_rank_one_reconstruction(st.tensor)
        assert np.max(np.abs(recon - st.tensor)) <= 1e-10
    # nonzero residual: reconstruction misses for entangled states
    ghz = sg.named_state("ghz", (2, 2, 2))
    recon = oracles.brute_rank_one_reconstruction(ghz.tensor)
    assert np.max(np.abs(recon - ghz.tensor)) > 0.1


def _real_gaussian_state(dims, seed):
    x = np.random.default_rng(seed).standard_normal(int(np.prod(dims)))
    return sg.BoxTensor(dims, x / np.linalg.norm(x))


# real amplitudes only: both orientations of every minor tie exactly there
WITNESS_REAL_STATES = [
    ("bell", (2, 2)), ("bell", (3, 3)), ("ghz", (2, 2, 2)), ("ghz", (2, 2, 2, 2)),
    ("w", (2, 2, 2)), ("w", (2, 2, 2, 2, 2)), ("basis-product", (2, 3, 2)),
    ((2, 2, 3), 71), ((2, 3, 2), 72), ((2, 2, 2, 2), 73),
]


@pytest.mark.parametrize("name,arg", WITNESS_REAL_STATES)
def test_residual_witness_tie_break_rule(name, arg):
    st = (sg.named_state(name, arg) if isinstance(name, str)
          else _real_gaussian_state(name, arg))
    seg = sg.segre_residual(st)
    mag, fam, k, l = oracles.brute_residual_witness(st.tensor, "slot")
    assert seg.residual == mag
    assert (seg.worst.slot, seg.worst.pair) == (fam, (k, l))
    tv = sg.t_variety_residual(st)
    mag, fam, k, l = oracles.brute_residual_witness(st.tensor, "class")
    assert tv.residual == mag
    perm_class, pair = tv.worst
    assert (perm_class.swap_set, pair) == \
        (tuple(oracles.brute_canonical_subsets(st.dims.m)[fam]), (k, l))


@pytest.mark.parametrize("dims,seed", [((2, 2, 3), 81), ((2, 3, 2), 82), ((2, 2, 2, 2), 83)])
def test_residual_witness_reproduces_residual_complex(dims, seed):
    st = sg.random_state("haar-pure", dims, seed=seed)
    seg = sg.segre_residual(st)
    assert abs(abs(sg.evaluate_minor(st, seg.worst)) - seg.residual) <= 1e-15
    tv = sg.t_variety_residual(st)
    assert abs(abs(sg.evaluate_perm_minor(st, *tv.worst)) - tv.residual) <= 1e-15


def test_block_streaming_matches_single_block(monkeypatch):
    st = sg.random_state("haar-pure", (2, 3, 2, 2), seed=13)
    whole = [sg.segre_residual(st), sg.t_variety_residual(st)]
    sums_whole = segre_ideal.slot_generator_sums(st)
    # tile 1 holds one minor; 7 splits the column pairs of every row pair; 40 splits both
    for tile in (1, 7, 40):
        monkeypatch.setattr(segre_ideal, "_SCAN_TILE", tile)
        chunked = [sg.segre_residual(st), sg.t_variety_residual(st)]
        for a, b in zip(whole, chunked):
            assert (a.residual, a.worst) == (b.residual, b.worst)
        sums_chunked = segre_ideal.slot_generator_sums(st)
        assert np.max(np.abs(sums_whole - sums_chunked)) <= 1e-13


@pytest.mark.parametrize("make", [
    lambda: sg.random_state("haar-pure", (2,) * 6, seed=101),
    lambda: sg.random_state("haar-pure", (3,) * 4, seed=102),
    lambda: sg.random_state("haar-pure", (4, 2, 3), seed=103),
    lambda: sg.named_state("w", (2,) * 6),
    lambda: _tie_states((3,) * 4)[2],      # GHZ
    lambda: sg.named_state("basis-product", (2, 3, 2)),
], ids=["haar-2^6", "haar-3^4", "haar-423", "w-2^6", "ghz-3^4", "basis-product-232"])
def test_residuals_do_not_depend_on_row_pair_order(monkeypatch, make):
    # the witness rule picks among ties whatever the visit order: the same pairs walked
    # backwards, in blocks of the same sizes, give the same bits and the same witness; a
    # 64-value tile makes blocks of at most 4 row pairs, so most walks have several
    st, real_pairs, walks = make(), segre_ideal._row_pairs, []

    def backwards(row_shape, budget):
        blocks = list(real_pairs(row_shape, budget))
        walks.append(len(blocks))
        if blocks:
            cuts = np.cumsum([r1.size for r1, _ in blocks])[:-1]
            r1, r2 = (np.concatenate(r)[::-1] for r in zip(*blocks))
            yield from zip(np.split(r1, cuts), np.split(r2, cuts))

    residuals = (sg.segre_residual, sg.t_variety_residual)
    want = [(r.residual.hex(), r.worst) for r in (f(st) for f in residuals)]
    monkeypatch.setattr(segre_ideal, "_row_pairs", backwards)
    monkeypatch.setattr(segre_ideal, "_SCAN_TILE", 64)
    assert [(r.residual.hex(), r.worst) for r in (f(st) for f in residuals)] == want
    assert sum(walks) > len(walks)     # some walk had more than one block to reverse


def _count_tiles(monkeypatch):
    """Sizes of the residual scan's column tiles, appended as the scan makes them."""
    sizes, real_tiles = [], segre_ideal._column_tiles

    def counting(up, lo, buf):
        for x0, y0, mags in real_tiles(up, lo, buf):
            sizes.append(mags.size)
            yield x0, y0, mags

    monkeypatch.setattr(segre_ideal, "_column_tiles", counting)
    return sizes


def _assert_brute_witness(st, sizes, tile):
    """Both scans give the brute oracle's residual and witness, each in tiles <= ``tile``."""
    subsets = oracles.brute_canonical_subsets(st.dims.m)
    for family, residual in (("slot", sg.segre_residual), ("class", sg.t_variety_residual)):
        sizes.clear()
        rep = residual(st)
        assert sizes and max(sizes) <= tile
        mag, fam, k, l = oracles.brute_residual_witness(st.tensor, family)
        assert rep.residual == mag
        if family == "slot":
            assert (rep.worst.slot, rep.worst.pair) == (fam, (k, l))
        else:
            assert (rep.worst[0].swap_set, rep.worst[1]) == (tuple(subsets[fam]), (k, l))


@pytest.mark.parametrize("dims,seed", [((2, 16), 91), ((2, 3, 5), 92), ((3, 3, 2), 93)])
def test_scan_blocks_never_exceed_budget(monkeypatch, dims, seed):
    # (2, 16): M_{0} has more columns than the tile, so its second columns are split too
    monkeypatch.setattr(segre_ideal, "_SCAN_TILE", 7)
    _assert_brute_witness(_real_gaussian_state(dims, seed), _count_tiles(monkeypatch), 7)


def _tie_states(dims):
    """Basis product (every minor 0), W, GHZ and a +-1 real state: states with many ties."""
    total, strides = math.prod(dims), [math.prod(dims[j + 1:]) for j in range(len(dims))]
    w, ghz = np.zeros(total), np.zeros(total)
    w[strides] = 1.0                                       # a single 1 at each slot
    ghz[[i * sum(strides) for i in range(min(dims))]] = 1.0    # i at every slot
    signs = np.random.default_rng(total).choice([-1.0, 1.0], total)
    return [sg.named_state("basis-product", dims),
            *(sg.BoxTensor(dims, x / np.linalg.norm(x)) for x in (w, ghz, signs))]


@pytest.mark.parametrize("tile", [5, 24])
@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2), (3, 3, 2), (2, 16)])
def test_tiled_scan_witness_ties(monkeypatch, dims, tile):
    # small tiles split the row blocks and the column tiles, and mirror entries tie too
    monkeypatch.setattr(segre_ideal, "_SCAN_TILE", tile)
    sizes = _count_tiles(monkeypatch)
    for st in _tie_states(dims):
        _assert_brute_witness(st, sizes, tile)


def test_lopsided_scan_memory_does_not_grow(monkeypatch):
    # (2, N, 2): class {0, 1} has N (N - 1) row pairs for one first-slot value
    peaks = []
    for n in (500, 2000):
        st = sg.random_state("haar-pure", (2, n, 2), seed=3)
        whole = sg.t_variety_residual(st)
        monkeypatch.setattr(segre_ideal, "_SCAN_TILE", 1 << 14)
        tracemalloc.start()
        try:
            blocked = sg.t_variety_residual(st)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert (blocked.residual, blocked.worst) == (whole.residual, whole.worst)
    assert peaks[1] - peaks[0] < 3e6


def test_scan_memory_does_not_grow_with_the_state():
    for small, large in (((2,) * 9, (2,) * 11), ((3,) * 5, (3,) * 7)):
        peaks = []
        for dims in (small, large):
            st = sg.random_state("haar-pure", dims, seed=5)
            tracemalloc.start()
            try:
                sg.t_variety_residual(st)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6, (small, peaks)


@pytest.mark.parametrize("dims", [(2,) * 9, (3,) * 6])
def test_scan_peak_memory_is_two_tile_buffers(dims):
    # two 2^14-value complex tile buffers are 0.5 MB; the row blocks and their rows add to them
    st = sg.random_state("haar-pure", dims, seed=5)
    tracemalloc.start()
    try:
        sg.t_variety_residual(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25e6


def test_residual_scan_refused_up_front(monkeypatch):
    # (2, 2, 2): 3 slots x 1 row pair x C(4, 2) column pairs = 18 segre minors;
    # classes {0}, {1} scan 6 each and {0, 1} scans 2 row pairs x 1 = 14 in all
    st = sg.random_state("haar-pure", (2, 2, 2), seed=3)
    monkeypatch.setattr(segre_ideal, "RESIDUAL_SCAN_CAP", 18)
    sg.segre_residual(st)
    monkeypatch.setattr(segre_ideal, "RESIDUAL_SCAN_CAP", 14)
    sg.t_variety_residual(st)
    with pytest.raises(sg.DimensionError, match="18 > 14"):
        sg.segre_residual(st)
    monkeypatch.setattr(segre_ideal, "RESIDUAL_SCAN_CAP", 13)
    with pytest.raises(sg.DimensionError, match="14 > 13"):
        sg.t_variety_residual(st)


# --------------------------------------------------------------- partitioning

def test_partition_commutativity_basis_factors_exact():
    dev = sg.check_partition_commutativity([(1, 0), (0, 1), (1, 0)], 1)
    assert dev == 0.0


@pytest.mark.parametrize("split", [1, 2])
def test_partition_commutativity_random(split):
    rng = np.random.default_rng(40 + split)
    factors = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for n in (2, 3, 2)]
    factors = [f / np.linalg.norm(f) for f in factors]
    assert sg.check_partition_commutativity(factors, split) <= 1e-12


def test_partition_commutativity_bad_split():
    factors = [(1, 0), (0, 1)]
    with pytest.raises(sg.PartitionError):
        sg.check_partition_commutativity(factors, 0)
    with pytest.raises(sg.PartitionError):
        sg.check_partition_commutativity(factors, 2)
    with pytest.raises(sg.PartitionError):
        sg.check_partition_commutativity([(1, 0)], 1)
