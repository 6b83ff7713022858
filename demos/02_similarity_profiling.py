"""Profile layer similarity under a memory budget and pick the start layer."""
import numpy as np

from fedchain.model import StackDims, adapter_param_count, build_stack, layer_param_count
from fedchain.similarity import (
    aggregate_profiles,
    partition_layers,
    profile_layers,
    select_start_layer,
)

# init_scale > 1 makes layers drift from the input faster, so the profile
# decays visibly even at random init.
dims = StackDims(L=8, u=16, v=4, C=3, kind="mlp", vocab=30)
stack = build_stack(dims, seed=4, init_scale=1.5)

rng = np.random.default_rng(0)
batch = rng.integers(0, dims.vocab, size=(16, 10))
n_rows = batch.shape[0] * batch.shape[1]

# A tight budget splits the layers into blocks: a device holds one block of
# layers at a time, plus the carried hidden state at the block boundary.
# Each layer costs its backbone and adapter parameters at 8 bytes (f64).
layer_cost = 8 * (layer_param_count(dims) + adapter_param_count(dims))
budget = 2 * n_rows * dims.u * 8 + 3 * layer_cost
blocks = partition_layers(stack, n_rows, budget)
print(f"budget {budget} bytes -> blocks {blocks}")

# The score per layer is CKA(layer output, embedded input); the partition is
# bookkeeping only and never changes the numbers.
whole = profile_layers(stack, batch)
blocked = profile_layers(stack, batch, mem_budget=budget)
print("\nlayer  CKA(whole)  CKA(blocked)")
for i, (a, b) in enumerate(zip(whole.scores, blocked.scores), start=1):
    print(f"  {i}     {a:.6f}    {b:.6f}")

# Clients profile their own shards; the server merges by sample weight and
# starts the chain at the first layer that falls below the threshold.
other = profile_layers(stack, rng.integers(0, dims.vocab, size=(8, 10)))
merged = aggregate_profiles([whole, other])
threshold = 0.8
start = select_start_layer(merged, threshold)
print(f"\nmerged profile: {[round(s, 3) for s in merged.scores]}")
print(f"first layer below {threshold}: L_start = {start}")
