"""Similarity profiling tests: HSIC/CKA against the double-sum oracle,
invariances, block-wise streaming, start-layer selection."""
import numpy as np
import pytest

from fedchain.model import StackDims, build_stack, mark_trainable
from fedchain.similarity import (
    CKAProfile,
    DegenerateSimilarity,
    aggregate_profiles,
    cka,
    hsic_linear,
    partition_layers,
    profile_layers,
    select_start_layer,
)
from fedchain.tensor import Tape

from oracles import forward_through_per_row, greedy_partition, hsic_double_sum

DIMS = StackDims(L=6, u=8, v=3, C=3, kind="mlp", vocab=13)


# ---------------------------------------------------------------- hsic / cka


def test_hsic_matches_double_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        di, dj = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        zi = rng.normal(size=(n, di)) * rng.uniform(0.5, 3.0)
        zj = rng.normal(size=(n, dj)) * rng.uniform(0.5, 3.0)
        got = hsic_linear(zi, zj)
        want = hsic_double_sum(zi, zj)
        assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_hsic_frozen_two_point_value():
    # centered gram of [[1], [-1]] has Frobenius norm^2 = 4, over (n-1)^2 = 1
    assert hsic_linear([[1.0], [-1.0]], [[1.0], [-1.0]]) == pytest.approx(4.0, abs=1e-14)


def test_hsic_symmetry_and_nonnegativity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        zi, zj = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        assert hsic_linear(zi, zj) == pytest.approx(hsic_linear(zj, zi), rel=1e-12)
        assert hsic_linear(zi, zj) >= 0.0
        assert hsic_linear(zi, zi) > 0.0


def test_cka_self_similarity_is_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(size=(7, 4))
        assert cka(z, z) == pytest.approx(1.0, abs=1e-12)


def test_cka_bounded_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(50):
        zi, zj = rng.normal(size=(8, 3)), rng.normal(size=(8, 5))
        s = cka(zi, zj)
        assert -1e-9 <= s <= 1.0 + 1e-9


def test_cka_invariant_to_orthogonal_transform_and_scaling():
    rng = np.random.default_rng(4)
    for _ in range(10):
        zi, zj = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        base = cka(zi, zj)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert cka(zi @ q, zj) == pytest.approx(base, abs=1e-9)
        assert cka(zi * 3.7, zj) == pytest.approx(base, abs=1e-9)
        assert cka(zi, zj * 0.02) == pytest.approx(base, abs=1e-9)
        perm = rng.permutation(9)
        assert cka(zi[perm], zj[perm]) == pytest.approx(base, abs=1e-9)


def test_cka_returns_python_float():
    rng = np.random.default_rng(5)
    assert type(cka(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))) is float


@pytest.mark.parametrize("n, di, dj", [(2, 1, 1), (9, 4, 3), (1024, 8, 8), (1024, 32, 32),
                                       (1024, 32, 8), (6400, 8, 32)])
def test_cka_is_bitwise_the_three_hsic_formula(n, di, dj):
    # cka centers each argument once; at n=1024 with 8 columns a self-product on one
    # buffer (syrk) differs from hsic_linear's in the last bits
    rng = np.random.default_rng(n + di + dj)
    for _ in range(3):
        zi = rng.normal(size=(n, di)) * rng.uniform(0.1, 10.0) + rng.normal()
        zj = zi[:, :1] * rng.normal(size=dj) + rng.normal(size=(n, dj))
        want = hsic_linear(zi, zj) / np.sqrt(hsic_linear(zi, zi) * hsic_linear(zj, zj))
        assert cka(zi, zj) == float(want)


def test_degenerate_inputs_raise():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(6, 3))
    const = np.ones((6, 3))  # centered to zero: self-HSIC vanishes
    with pytest.raises(DegenerateSimilarity, match="second"):
        cka(z, const)
    with pytest.raises(DegenerateSimilarity, match="first"):
        cka(const, z)
    with pytest.raises(ValueError):
        hsic_linear(z[:1], z[:1])
    with pytest.raises(ValueError):
        hsic_linear(z, z[:4])
    with pytest.raises(ValueError):
        hsic_linear(z.reshape(-1), z.reshape(-1))


# ---------------------------------------------------------------- profiles


def _batch(rng, n=4, t=5, vocab=13):
    return rng.integers(0, vocab, size=(n, t))


def test_identity_backbone_profile_scores_all_one():
    stack = build_stack(DIMS, seed=0)
    for unit in stack.units:  # each block then adds gelu(...) @ 0 + 0: it is the identity
        unit.backbone.params()["fc2.W"].data[:] = 0.0
    prof = profile_layers(stack, _batch(np.random.default_rng(0)))
    assert len(prof.scores) == 6
    assert all(s == pytest.approx(1.0, abs=1e-9) for s in prof.scores)
    assert prof.sample_weight == 4 * 5


def test_profile_scores_decay_with_depth_on_random_backbone():
    stack = build_stack(DIMS, seed=3, init_scale=4.0)
    prof = profile_layers(stack, _batch(np.random.default_rng(1)))
    assert prof.scores[0] > prof.scores[-1]


def test_profile_never_records_onto_an_active_tape():
    stack = build_stack(DIMS, seed=1)
    mark_trainable(stack, window=(1, 6))
    with Tape() as tape:
        profile_layers(stack, _batch(np.random.default_rng(2)))
    assert len(tape) == 0


def test_blockwise_profile_is_partition_independent():
    stack = build_stack(DIMS, seed=2)
    batch = _batch(np.random.default_rng(3))
    full = profile_layers(stack, batch).scores
    for blocks in [
        [[1], [2], [3], [4], [5], [6]],
        [[1, 2, 3], [4, 5, 6]],
        [[1], [2, 3, 4, 5], [6]],
    ]:
        split = profile_layers(stack, batch, blocks=blocks).scores
        assert np.allclose(split, full, atol=1e-9, rtol=0)


@pytest.mark.parametrize("blocks", [None, [[1], [2], [3], [4], [5], [6]], [[1, 2, 3], [4, 5, 6]],
                                    [[1], [2, 3, 4, 5], [6]]])
def test_profile_scores_are_bitwise_cka_of_each_layer(blocks):
    stack = build_stack(DIMS, seed=4, init_scale=2.0)
    batch = _batch(np.random.default_rng(5), n=6)
    scores = profile_layers(stack, batch, blocks=blocks).scores
    z0 = stack.embed(batch).data.reshape(-1, DIMS.u)
    for i, score in enumerate(scores, start=1):
        rows = forward_through_per_row(stack, batch, upto=i)[0].data.reshape(-1, DIMS.u)
        assert score == cka(rows, z0), i  # == on floats: bitwise, no tolerance


def test_profile_under_budget_uses_fitting_partition():
    stack = build_stack(DIMS, seed=2)
    batch = _batch(np.random.default_rng(3))
    n_rows = batch.shape[0] * batch.shape[1]
    layer_cost = 8 * (sum(t.size for t in stack.units[0].backbone.params().values()) + 8 * 3 * 2)
    budget = 2 * n_rows * 8 * 8 + layer_cost + layer_cost // 2  # room for exactly one layer
    single = partition_layers(stack, n_rows, mem_budget=budget)
    assert all(len(b) == 1 for b in single)
    budget_scores = profile_layers(stack, batch, mem_budget=budget).scores
    assert np.allclose(budget_scores, profile_layers(stack, batch).scores, atol=1e-9)


def test_profile_rejects_bad_block_cover():
    stack = build_stack(DIMS, seed=2)
    batch = _batch(np.random.default_rng(3))
    with pytest.raises(ValueError):
        profile_layers(stack, batch, blocks=[[1, 2], [4, 5, 6]])
    with pytest.raises(ValueError):
        profile_layers(stack, batch, blocks=[[2, 1], [3, 4, 5, 6]])


def test_partition_blocks_are_greedy_maximal():
    stack = build_stack(DIMS, seed=2)
    layer_cost = 8 * (sum(t.size for t in stack.units[0].backbone.params().values()) + 8 * 3 * 2)
    carry = 2 * 10 * 8 * 8
    blocks = partition_layers(stack, n_rows=10, mem_budget=carry + 2 * layer_cost)
    assert blocks == [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ValueError, match="floor"):
        partition_layers(stack, n_rows=10, mem_budget=carry + layer_cost - 1)


def _partition_or_error(partition, stack, n_rows, budget):
    try:
        return partition(stack, n_rows, budget)
    except ValueError as e:
        return str(e)


def test_partition_matches_the_greedy_oracle():
    rng = np.random.default_rng(7)
    for kind in ("mlp", "attn-lite"):
        for ffn in (0, 40):
            for L in (1, 5, 7):
                stack = build_stack(StackDims(L=L, u=8, v=3, C=3, kind=kind, ffn=ffn, vocab=13),
                                    seed=0)
                unit = stack.units[0]
                cost = 8 * (sum(t.size for t in unit.backbone.params().values())
                            + unit.adapter.down.size + unit.adapter.up.size)
                # and a carry near 2**61, where floats lie 512 apart: float arithmetic misplaces an edge
                for n_rows in (10, 2**54 + 1):
                    carry = 2 * n_rows * 8 * 8
                    budgets = [carry + k * cost + d for k in range(L + 2) for d in (-1, 0, 1)]
                    budgets += [float(b) for b in budgets]
                    budgets += [int(rng.integers(carry, carry + (L + 1) * cost)) for _ in range(20)]
                    budgets += [float(carry) * 4, 2**80, float("inf")]
                    for budget in budgets:
                        want = _partition_or_error(greedy_partition, stack, n_rows, budget)
                        got = _partition_or_error(partition_layers, stack, n_rows, budget)
                        assert got == want, (kind, ffn, L, n_rows, budget)


# ---------------------------------------------------------------- aggregation, selection


def test_aggregate_profiles_weighted_mean():
    p1 = CKAProfile(scores=[0.0, 1.0], sample_weight=1)
    p2 = CKAProfile(scores=[0.8, 1.0], sample_weight=3)
    agg = aggregate_profiles([p1, p2])
    assert agg.scores[0] == pytest.approx(0.6, abs=1e-15)
    assert agg.scores[1] == pytest.approx(1.0, abs=1e-15)
    assert agg.sample_weight == 4


def test_aggregate_profiles_validates():
    with pytest.raises(ValueError):
        aggregate_profiles([])
    with pytest.raises(ValueError):
        aggregate_profiles([CKAProfile([0.5], 1), CKAProfile([0.5, 0.5], 1)])
    with pytest.raises(ValueError):
        CKAProfile(scores=[0.5], sample_weight=0)
    with pytest.raises(ValueError):
        CKAProfile(scores=[1.5], sample_weight=1)


def test_select_start_layer_first_strict_crossing():
    prof = CKAProfile(scores=[0.95, 0.85, 0.75, 0.60], sample_weight=1)
    assert select_start_layer(prof, threshold=0.8) == 3
    assert select_start_layer(prof, threshold=0.96) == 1
    assert select_start_layer(prof, threshold=0.60) == 4  # strict comparison
    assert select_start_layer(prof, threshold=0.5) == 4  # fallback: last layer
    assert select_start_layer(CKAProfile([0.99, 0.98], 1), threshold=1.0) == 1


def test_select_start_layer_threshold_range():
    prof = CKAProfile(scores=[0.5], sample_weight=1)
    with pytest.raises(ValueError):
        select_start_layer(prof, threshold=0.0)
    with pytest.raises(ValueError):
        select_start_layer(prof, threshold=1.2)
