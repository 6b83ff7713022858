"""The no-grad walks of the stack (eval, CKA profiling and the frozen part of a
training step) take each distinct token id once where every layer acts on each
row alone, and are bitwise the per-row walk.  A run walks the frozen part once a
round for all its steps."""
import numpy as np
import pytest

from fedchain import chain, federation, similarity
from fedchain.chain import StageLossConfig, WindowSchedule, stage_loss
from fedchain.config import parse_config
from fedchain.data import Dataset
from fedchain.model import (
    FrozenWalk,
    MlpLayer,
    StackDims,
    adapter_param_count,
    apply_layers,
    build_stack,
    end_to_end_loss,
    evaluate_accuracy,
    forward_through,
    gather_rows,
    layer_param_count,
    mark_trainable,
    named_parameters,
    shared_walk,
    walk_input,
)
from fedchain.similarity import (
    DegenerateSimilarity,
    aggregate_profiles,
    partition_layers,
    profile_layers,
)
from fedchain.tensor import NumericError, Tape, no_grad

from oracles import forward_through_per_row

# the benchmark's shapes: u=32, ffn 64, v=8, 2 classes, vocab 50, 16 tokens a row
DESK = StackDims(L=6, u=32, v=8, C=2, vocab=50)
DEEP = StackDims(L=24, u=32, v=8, C=2, vocab=50)


def _tokens(seed, rows, t=16, vocab=50):
    return np.random.default_rng(seed).integers(0, vocab, size=(rows, t))


def _per_row(monkeypatch):
    # an mlp stack that claims to mix tokens walks per row, as attn-lite does
    monkeypatch.setattr(MlpLayer, "mixes_tokens", True)


def test_distinct_walk_is_the_per_row_forward_bitwise():
    stack = build_stack(DESK, seed=4)
    x = _tokens(0, 400)
    ids, slot = walk_input(stack, x)
    assert ids.shape == (50, 1) and slot.shape == (DESK.vocab,)  # one row per id of the vocab
    with no_grad():
        got = gather_rows(apply_layers(stack, stack.embed(ids), 1, stack.L), slot, x)
        want, _ = forward_through(stack, x)
        assert np.array_equal(got.data, want.data)
        got_logits = stack.final_head.logits(got).data
        want_logits = stack.final_head.logits(want).data
    assert np.array_equal(got_logits, want_logits)
    labels = np.random.default_rng(1).integers(0, 2, size=400)
    assert evaluate_accuracy(stack, x, labels) == float((want_logits.argmax(axis=1) == labels).mean())


@pytest.mark.parametrize("dims", [DESK, DEEP], ids=["desk", "deep"])
@pytest.mark.parametrize("split", [False, True], ids=["one-block", "budget-blocks"])
def test_distinct_profile_is_the_per_row_profile_bitwise(monkeypatch, dims, split):
    stack = build_stack(dims, seed=7)
    batch = _tokens(3, 64)  # profile_clients' 64 rows
    budget = None
    if split:
        n_rows = batch.size
        whole = partition_layers(stack, n_rows, np.inf)
        carry = 2 * n_rows * dims.u * 8
        cost = 8 * sum(t.size for t in (*stack.units[0].backbone.params().values(),
                                        stack.units[0].adapter.down, stack.units[0].adapter.up))
        budget = carry + 4 * cost + cost // 2  # blocks of 4 layers
        assert whole == [list(range(1, dims.L + 1))]
        assert len(partition_layers(stack, n_rows, budget)) == -(-dims.L // 4)
    assert walk_input(stack, batch)[1] is not None
    distinct = profile_layers(stack, batch, budget)
    _per_row(monkeypatch)
    assert walk_input(stack, batch)[1] is None
    per_row = profile_layers(stack, batch, budget)
    assert distinct.scores == per_row.scores  # == on floats: bitwise, no tolerance
    assert distinct.sample_weight == per_row.sample_weight == batch.size


def test_one_distinct_id_walks_two_rows_bitwise_the_per_row_walk(monkeypatch):
    stack = _moved(DESK, 2)
    x = np.full((3, 16), 7)
    ids, slot = walk_input(stack, x)
    assert ids.tolist() == [[7], [7]] and slot[7] == 0
    pooled, profiled = [], []  # eval's final hidden state, profiling's per-layer rows
    logits = stack.final_head.logits

    def head(h):
        pooled.append(h.data)
        return logits(h)

    def scored(ci, self_i, cj, self_j):  # one id's rows have no spread: record, do not score
        profiled.append(ci)
        return 0.0

    stack.final_head.logits = head
    monkeypatch.setattr(similarity, "_cka_centered", scored)

    def walks():
        with no_grad():
            h, _ = forward_through(stack, x)
        evaluate_accuracy(stack, x, np.zeros(len(x), dtype=int))
        profile_layers(stack, x)
        return h.data

    seen = _rows_seen(monkeypatch, stack)
    got = walks()
    assert seen == {i: [2, 2, 2] for i in seen}  # forward_through, eval and profiling
    _per_row(monkeypatch)
    want = walks()
    assert np.array_equal(got, want)
    assert len(pooled) == 2 and np.array_equal(*pooled)
    assert len(profiled) == 2 * stack.L
    for layer, (distinct, per_row) in enumerate(zip(profiled[:stack.L], profiled[stack.L:]), 1):
        assert np.array_equal(distinct, per_row), layer


def test_attn_lite_walks_per_row():
    stack = build_stack(StackDims(L=3, u=8, v=2, C=2, kind="attn-lite", vocab=13), seed=1)
    x = _tokens(5, 6, t=4, vocab=13)
    ids, index = walk_input(stack, x)
    assert index is None and ids is x
    with no_grad():
        want, _ = forward_through(stack, x)
    pred = stack.final_head.logits(want).data.argmax(axis=1)
    assert evaluate_accuracy(stack, x, pred) == 1.0
    assert len(profile_layers(stack, x).scores) == 3


@pytest.mark.parametrize("layer", [1, 6])
def test_a_nan_backbone_weight_still_raises(layer):
    stack = build_stack(DESK, seed=3)
    stack.units[layer - 1].backbone.w1.data[0, 0] = np.nan
    x = _tokens(1, 8)
    assert walk_input(stack, x)[1] is not None
    with pytest.raises(NumericError):
        evaluate_accuracy(stack, x, np.zeros(8, dtype=int))
    with pytest.raises(NumericError):
        profile_layers(stack, x)
    mark_trainable(stack, (6, 6))  # layer 6's backbone runs in the frozen walk too
    with Tape(), pytest.raises(NumericError):
        forward_through(stack, x, upto=6)


# ------------------------------------------------- phase 1: every client's profile


def _layer_cost(dims):
    return 8 * (layer_param_count(dims) + adapter_param_count(dims))


def _profiling_experiment(dims, seq_len, one_id=False):
    """Eight Dirichlet(0.3) shards plus a one-row shard, which sits out at
    seq_len 1; budgets split the layers into blocks of 1 to 3, or leave them
    whole.  With one_id, the smallest shard of 2 or more rows holds one token id."""
    rng = np.random.default_rng(31)
    x = rng.integers(0, dims.vocab, size=(600, seq_len))
    y = np.arange(600) % 2
    shards = federation.dirichlet_partition(y, 8, 0.3, 32)
    assert any(2 <= len(s) < 64 for s in shards) and any(len(s) > 64 for s in shards)
    if one_id:
        x[min((s for s in shards if len(s) >= 2), key=len)] = 7
    clients = []
    for i, shard in enumerate([*shards, shards[0][:1]]):
        n_rows = min(64, len(shard)) * seq_len
        budget = 2 * n_rows * dims.u * 8 + (i % 3 + 1) * _layer_cost(dims) + 8
        clients.append(federation.ClientProfile(None if i % 4 == 3 else budget, shard))
    return federation.Experiment(Dataset(x, y, C=2, vocab=dims.vocab), build_stack(dims, seed=9),
                                 np.arange(0), clients)


def _per_client_profile(exp):
    """The per-client loop: each client's own profile_layers call, then the mean."""
    profiles = []
    for c in exp.clients:
        take = c.shard[:64]
        if len(take) * exp.dataset.seq_len >= 2:
            profiles.append(profile_layers(exp.stack, exp.dataset.x[take], c.mem_budget))
    return aggregate_profiles(profiles)


ATTN = StackDims(L=6, u=32, v=8, C=2, kind="attn-lite", vocab=50)
PROFILED = pytest.mark.parametrize("dims", [DESK, DEEP, ATTN], ids=["desk", "deep", "attn-lite"])


@pytest.mark.parametrize("seq_len", [1, 16])
@PROFILED
def test_profile_clients_is_the_per_client_profile_bitwise(dims, seq_len):
    exp = _profiling_experiment(dims, seq_len)
    takes = [c.shard[:64] for c in exp.clients]
    assert any(len(t) < 64 for t in takes[:-1]) and len(takes[-1]) == 1
    split = [c for c in exp.clients if c.mem_budget is not None and len(c.shard) * seq_len >= 2]
    assert split and all(len(partition_layers(exp.stack, min(64, len(c.shard)) * seq_len,
                                              c.mem_budget)) > 1 for c in split)
    got, want = federation.profile_clients(exp), _per_client_profile(exp)
    assert got.scores == want.scores  # == on floats: bitwise, no tolerance
    assert got.sample_weight == want.sample_weight
    # at seq_len 1 the one-row shard's single token row sits out
    assert got.sample_weight == sum(len(t) for t in takes) * seq_len - (seq_len == 1)


@PROFILED
def test_a_one_id_client_raises_as_its_own_profile_does(dims):
    # one id's rows have no spread, whether walked as its own two rows or read from the union
    exp = _profiling_experiment(dims, 16, one_id=True)
    with pytest.raises(DegenerateSimilarity) as got:
        federation.profile_clients(exp)
    with pytest.raises(DegenerateSimilarity) as want:
        _per_client_profile(exp)
    assert str(got.value) == str(want.value)


def test_profile_clients_walks_each_layer_once_on_the_union(monkeypatch):
    exp = _profiling_experiment(DEEP, 16)
    k = len(np.unique(np.concatenate([exp.dataset.x[c.shard[:64]] for c in exp.clients])))
    assert 1 < k < 64 * 16
    seen = _rows_seen(monkeypatch, exp.stack)
    federation.profile_clients(exp)
    assert seen == {i: [k] for i in seen}


def test_a_client_budget_below_the_floor_raises_before_any_layer_runs(monkeypatch):
    exp = _profiling_experiment(DESK, 16)
    last = exp.clients[-1]
    n_rows = min(64, len(last.shard)) * 16
    last.mem_budget = 2 * n_rows * DESK.u * 8 + _layer_cost(DESK) - 1
    with pytest.raises(ValueError) as floor:
        partition_layers(exp.stack, n_rows, last.mem_budget)
    seen = _rows_seen(monkeypatch, exp.stack)
    with pytest.raises(ValueError) as raised:
        federation.profile_clients(exp)
    assert str(raised.value) == str(floor.value)
    assert "single-layer floor" in str(raised.value)
    assert seen == {i: [] for i in seen}


# ---------------------------------------------------------------- training steps


def _moved(dims, seed):
    """A stack whose adapters are not the identity, so every gradient path carries signal."""
    stack = build_stack(dims, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for unit in stack.units:
        unit.adapter.up.data[:] = rng.uniform(-0.3, 0.3, size=unit.adapter.up.shape)
    return stack


def _step(monkeypatch, stack, x, y, forward, window, lam, walk=None):
    """One training step with chain's forward_through replaced by forward: the
    hidden state and released layers forward returned, the tape length and
    every parameter's .grad.  window None is the final_only baseline's step.
    walk is the shared walk the step reads its frozen rows from."""
    seen = []

    def recorded(*args, **kwargs):
        seen.append(forward(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(chain, "forward_through", recorded)
    params = named_parameters(stack)
    for t in params.values():
        t.grad = None
    with Tape() as tape:
        if window is None:
            loss = end_to_end_loss(stack, recorded(stack, x, upto=stack.L, walk=walk)[0], y)
        else:
            loss, _ = stage_loss(stack, x, y, window, StageLossConfig(lam), walk)
        tape.backward(loss)
    (h, released), = seen
    grads = {name: t.grad for name, t in params.items() if t.grad is not None}
    return h.data, released, len(tape), grads


def _assert_step_is_per_row(monkeypatch, stack, x, window, lam=0.2, walk=None):
    y = np.arange(len(x)) % stack.dims.C
    got = _step(monkeypatch, stack, x, y, forward_through, window, lam, walk)
    want = _step(monkeypatch, stack, x, y, forward_through_per_row, window, lam, walk)
    assert np.array_equal(got[0], want[0])
    assert got[1:3] == want[1:3]
    assert got[3].keys() == want[3].keys() and want[3]
    for name, grad in want[3].items():
        assert np.array_equal(got[3][name], grad), name
    return got


def _rows_seen(monkeypatch, stack):
    """Per layer, the [u] row count of every MlpLayer.forward call from here on."""
    layer_of = {id(unit.backbone): i for i, unit in enumerate(stack.units, start=1)}
    seen = {i: [] for i in layer_of.values()}
    forward = MlpLayer.forward

    def counted(self, x):
        seen[layer_of[id(self)]].append(x.size // x.shape[-1])
        return forward(self, x)

    monkeypatch.setattr(MlpLayer, "forward", counted)
    return seen


WINDOWS = [w for Q in (1, 2, 3) for w in WindowSchedule(1, DESK.L, Q).positions]


@pytest.mark.parametrize("lam", [0.0, 0.2])
@pytest.mark.parametrize("window", WINDOWS, ids=[f"{lo}-{hi}" for lo, hi in WINDOWS])
def test_training_step_is_the_per_row_step_bitwise(monkeypatch, window, lam):
    stack = _moved(DESK, 3)
    mark_trainable(stack, window)
    _assert_step_is_per_row(monkeypatch, stack, _tokens(2, 32), window, lam)


def test_final_only_step_walks_every_layer_once_per_distinct_id(monkeypatch):
    stack = _moved(DESK, 4)
    mark_trainable(stack, scheme="final_only")
    x = _tokens(3, 32)
    grads = _assert_step_is_per_row(monkeypatch, stack, x, None)[3]
    assert sorted(grads) == ["final_head.W", "final_head.b"]
    seen = _rows_seen(monkeypatch, stack)
    with Tape() as tape:
        forward_through(stack, x)
    assert len(tape) == 0
    assert seen == {i: [len(np.unique(x))] for i in seen}


@pytest.mark.parametrize("lo", range(1, DESK.L + 1))
def test_the_frozen_walk_records_nothing_and_runs_each_distinct_id_once(monkeypatch, lo):
    stack = _moved(DESK, 5)
    mark_trainable(stack, (lo, lo))
    x = _tokens(4, 32)
    k = len(np.unique(x))
    assert k < x.size
    seen = _rows_seen(monkeypatch, stack)
    with Tape() as tape:
        h, released = forward_through(stack, x, upto=lo)
    assert len(tape) == 1 and h.requires_grad  # the window adapter's one node
    assert released == list(range(1, lo))
    assert seen == {i: [k] if i <= lo else [] for i in seen}


def test_desk_step_records_as_many_tape_nodes_as_the_per_row_step(monkeypatch):
    stack = _moved(DESK, 6)
    nodes = {}
    for window in [(1, 2), (2, 3), (4, 5)]:
        mark_trainable(stack, window)
        nodes[window] = _assert_step_is_per_row(monkeypatch, stack, _tokens(5, 32), window)[2]
    assert nodes == {(1, 2): 14, (2, 3): 14, (4, 5): 14}


def test_attn_step_records_one_node_per_backbone_block():
    # all_adapters at window (1, 6): layer 1's backbone is frozen below every trained
    # tensor and records nothing; layers 2-6 record attention and mlp, one node each
    stack = _moved(StackDims(L=6, u=32, v=8, C=2, kind="attn-lite", vocab=50), 8)
    mark_trainable(stack, scheme="all_adapters")
    x = _tokens(6, 8)
    with Tape() as tape:
        stage_loss(stack, x, np.arange(len(x)) % 2, (1, 6), StageLossConfig(0.2))
    assert len(tape) == 20


@pytest.mark.parametrize("layer", [2, 3, 4])
def test_stage_loss_refuses_a_grad_requiring_backbone(layer):
    # window (3, 4); the backbone of layer 2 sits below it, of 3 and 4 inside it
    stack = _moved(DESK, 7)
    mark_trainable(stack, (3, 4))
    stack.units[layer - 1].backbone.w1.requires_grad = True
    x = _tokens(6, 32)
    y = np.arange(len(x)) % stack.dims.C
    with Tape(), pytest.raises(ValueError, match="w1 requires grad"):
        stage_loss(stack, x, y, (3, 4), StageLossConfig(0.2))


def test_one_distinct_id_and_attn_lite_steps_are_the_per_row_step(monkeypatch):
    stack = _moved(DESK, 8)
    mark_trainable(stack, (3, 4))
    one_id = np.full((4, 16), 7)
    _assert_step_is_per_row(monkeypatch, stack, one_id, (3, 4))
    attn = _moved(StackDims(L=4, u=8, v=2, C=2, kind="attn-lite", vocab=13), 9)
    mark_trainable(attn, (3, 4))
    _assert_step_is_per_row(monkeypatch, attn, _tokens(7, 6, t=4, vocab=13), (3, 4))


# ------------------------------------------------------- the round's shared walk


def _round_walk(stack, x, upto):
    """The walk a round shares: over x and the other shards of the round."""
    return shared_walk(stack, np.concatenate([x, _tokens(20, 96)]), upto)


ROUND_STEPS = ([("window", w, lam) for w in WINDOWS for lam in (0.0, 0.2)]
               + [(scheme, (1, DESK.L), 0.2) for scheme in ("all_adapters", "final_only")])


@pytest.mark.parametrize("scheme, window, lam", ROUND_STEPS,
                         ids=[f"{s}-{lo}-{hi}-{lam}" for s, (lo, hi), lam in ROUND_STEPS])
def test_a_step_on_the_round_walk_is_the_per_row_step_bitwise(monkeypatch, scheme, window, lam):
    stack = _moved(DESK, 10)
    mark_trainable(stack, window, scheme)
    x = _tokens(11, 32)
    walk = _round_walk(stack, x, window[1])
    _assert_step_is_per_row(monkeypatch, stack, x, window, lam, walk)
    # the step reads its frozen rows from the walk and walks none of them again
    seen = _rows_seen(monkeypatch, stack)
    with Tape():
        forward_through(stack, x, upto=window[1], walk=walk)
    frozen = (walk.depth + 1) // 2  # the layers whose backbone the walk ran
    assert seen == {i: [] if i <= frozen else [x.size] if i <= window[1] else [] for i in seen}


def test_a_one_id_batch_on_the_round_walk_is_the_per_row_step(monkeypatch):
    stack = _moved(DESK, 12)
    mark_trainable(stack, (3, 4))
    one_id = np.full((4, 16), 7)
    _assert_step_is_per_row(monkeypatch, stack, one_id, (3, 4), walk=_round_walk(stack, one_id, 4))


@pytest.mark.parametrize("window", [(1, 2), (3, 4), (5, 6)], ids=["1-2", "3-4", "5-6"])
def test_a_one_row_batch_on_the_round_walk_walks_itself(monkeypatch, window):
    # a one-row matmul is not bitwise a row of a k-row one: the round walk cannot serve it
    stack = _moved(DESK, 16)
    mark_trainable(stack, window)
    walk = shared_walk(stack, _tokens(20, 96), window[1])
    for token in (0, 7, 49):
        one_row = np.full((1, 1), token)
        _assert_step_is_per_row(monkeypatch, stack, one_row, window, walk=walk)


def _walked_round():
    stack = _moved(DESK, 13)
    mark_trainable(stack, (3, 4))
    x = _tokens(14, 32, vocab=25)  # ids 0..24 only
    return stack, x, shared_walk(stack, x, 4)


def test_the_round_walk_raises_when_the_frozen_part_moved():
    stack, x, walk = _walked_round()
    assert walk.depth == 5  # backbones and adapters of layers 1 and 2, then backbone 3
    mark_trainable(stack, (2, 3))
    with pytest.raises(ValueError, match="requires_grad flags give"):
        forward_through(stack, x, upto=3, walk=walk)
    mark_trainable(stack, (3, 4))
    stack.units[2].backbone.w1.requires_grad = True  # depth 4: layer 3's backbone trains
    with pytest.raises(ValueError, match="requires_grad flags give"):
        forward_through(stack, x, upto=4, walk=walk)


def test_the_round_walk_raises_on_an_id_it_did_not_walk():
    stack, x, walk = _walked_round()
    forward_through(stack, x[:2], upto=4, walk=walk)
    with pytest.raises(ValueError, match="did not take"):
        forward_through(stack, np.concatenate([x[:1], np.full((1, 16), 30)]), upto=4, walk=walk)


@pytest.mark.parametrize("name", ["embed", "backbone.1.fc1.W", "layer.2.adapter.up",
                                  "backbone.3.ln.gain"])
def test_the_round_walk_raises_once_a_walked_tensor_is_rebound(name):
    stack, x, walk = _walked_round()
    for untouched in ("layer.3.adapter.up", "backbone.4.fc1.W"):  # not walked: SGD may rebind
        t = named_parameters(stack)[untouched]
        t.data = t.data.copy()
    forward_through(stack, x, upto=4, walk=walk)
    t = named_parameters(stack)[name]
    t.data = t.data.copy()  # equal values, but the walk cannot tell
    with pytest.raises(ValueError, match="changed since the walk"):
        forward_through(stack, x, upto=4, walk=walk)


def test_no_shared_walk_where_the_walk_runs_per_row():
    stack = _moved(DESK, 15)
    mark_trainable(stack, (3, 4))
    assert shared_walk(stack, np.full((5, 16), 7), 4).depth == 5  # one id, walked as two rows
    assert shared_walk(stack, np.full((1, 1), 7), 4) is None
    attn = build_stack(StackDims(L=3, u=8, v=2, C=2, kind="attn-lite", vocab=13), seed=1)
    x = _tokens(5, 6, t=4, vocab=13)
    assert shared_walk(attn, x, 3) is None
    per_row = FrozenWalk(attn, *walk_input(attn, x), 3)  # reads back only the batch it walked
    assert per_row.rows(x, 3) is per_row.rows(x, 3)
    with pytest.raises(ValueError, match="only the batch it walked"):
        per_row.rows(x.copy(), 3)


# ---------------------------------------------------------------- whole runs


def _run_cfg(kind="mlp", rounds=4, seq_len=6, batch=16, alpha=None):
    shards = {"partition": "iid"} if alpha is None else {"partition": "dirichlet", "alpha": alpha}
    return parse_config({
        "model": {"L": 4, "u": 8, "v": 3, "kind": kind, "seed": 5},
        "data": {"kind": "cluster-tokens", "M": 160, "seq_len": seq_len, "vocab": 13,
                 "eval_fraction": 0.25},
        "federation": {"N": 4, "rounds": rounds, **shards, "sample_count": 3, "Q": 2},
        "chain": {"lambda": 0.2, "L_start": 1, "lr": 0.5, "local_steps": 2, "batch": batch},
    })


def _run(tmp_path, mode, **cfg):
    metrics = tmp_path / f"{mode}.jsonl"
    result = federation.run(_run_cfg(**cfg), mode=mode, metrics_path=metrics)
    return metrics.read_bytes(), {k: t.data for k, t in named_parameters(result.stack).items()}


# the last two cases step on one token row, which walks itself (a one-row matmul is
# not bitwise a row of a k-row one): every step, then in rounds that also step on 16
RUNS = [(mode, 6, 16, None) for mode in ("chainfed", "no_gpo", "no_dlct", "linear_probing",
                                         "full_adapters")] + [("chainfed", 1, 1, None),
                                                              ("chainfed", 1, 16, 0.2)]


@pytest.mark.parametrize("mode, seq_len, batch, alpha", RUNS,
                         ids=[f"{mode}-{t}x{b}" + ("" if a is None else "-dirichlet")
                              for mode, t, b, a in RUNS])
def test_a_run_on_round_walks_is_the_run_on_per_step_walks_bitwise(monkeypatch, tmp_path, mode,
                                                                   seq_len, batch, alpha):
    cfg = dict(seq_len=seq_len, batch=batch, alpha=alpha)
    if alpha is not None:  # some round samples a one-row shard next to a larger one
        exp = federation.setup(_run_cfg(**cfg))
        rounds = [sorted(len(exp.clients[c].shard) for c in federation.sample_clients(4, 3, r, 5))
                  for r in range(1, 5)]
        assert any(sizes[0] == 1 < sizes[-1] for sizes in rounds)
    shared = _run(tmp_path, mode, **cfg)
    monkeypatch.setattr(federation, "shared_walk", lambda *args: None)
    own = _run(tmp_path, mode, **cfg)
    assert shared[0] == own[0]
    assert shared[1].keys() == own[1].keys()
    for name, data in own[1].items():
        assert np.array_equal(shared[1][name], data), name


def test_an_attn_lite_run_takes_no_shared_walk(monkeypatch, tmp_path):
    built, walks = [], []
    make_walk, init = federation.shared_walk, FrozenWalk.__init__

    def spied_make_walk(*args):
        built.append(make_walk(*args))
        return built[-1]

    def spied_init(self, stack, x, *args):
        walks.append(np.shape(x))
        init(self, stack, x, *args)

    monkeypatch.setattr(federation, "shared_walk", spied_make_walk)
    monkeypatch.setattr(FrozenWalk, "__init__", spied_init)
    _run(tmp_path, "chainfed", kind="attn-lite", rounds=2)
    assert built == [None, None]
    # a round: one walk a step (3 clients x 2 steps, each [16, 6]), one for eval
    assert walks == 2 * ([(16, 6)] * 6 + [(40, 6)])


def test_a_run_walks_each_frozen_layer_once_a_round(monkeypatch):
    cfg = _run_cfg(rounds=2)
    exp = federation.setup(cfg)
    x = exp.dataset.x
    k = [len(np.unique(x[np.concatenate([exp.clients[c].shard
                                         for c in federation.sample_clients(4, 3, r, 5)])]))
         for r in (1, 2)]
    k_eval = len(np.unique(x[exp.eval_idx]))
    seen = {}
    build = federation.build_stack

    def spied_build(*args, **kwargs):
        stack = build(*args, **kwargs)
        seen.update(_rows_seen(monkeypatch, stack))
        return stack

    monkeypatch.setattr(federation, "build_stack", spied_build)
    federation.run(cfg)
    steps = [16 * 6] * (3 * 2)  # per row: 3 clients x 2 steps of [16, 6]
    # round 1 trains window (1, 2), round 2 window (2, 3); eval walks every layer once
    assert seen == {1: [k[0], k_eval, k[1], k_eval],
                    2: [*steps, k_eval, k[1], k_eval],
                    3: [k_eval, *steps, k_eval],
                    4: [k_eval, k_eval]}
    assert k[0] < 3 * 30 * 6 and k_eval < 40 * 6
