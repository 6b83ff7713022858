"""Federated orchestration: partitioning, memory accounting, rounds, baselines.

A run sets up (`setup`: data, stack, eval split, client shards), then
proceeds in two phases.  Phase 1 profiles layer similarity on every
device's shard, aggregates the profiles to pick the start layer
(`choose_start_layer`), and sizes the trainable window from the tightest
device memory budget (`window_size`).  Phase 2 runs synchronous rounds:
sample clients, train the current window locally, upload deltas, apply
the sample-size-weighted mean to the global model.  `fedchain profile`
runs the same set-up and phase 1.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .chain import ParamDelta, StageLossConfig, WindowSchedule, local_update
from .data import Dataset
from .model import (
    TRAINABLE_SCHEMES,
    ModelStack,
    StackDims,
    adapter_param_count,
    build_stack,
    embed_param_count,
    evaluate_accuracy,
    head_param_count,
    layer_param_count,
    mark_trainable,
    named_parameters,
    shared_walk,
)
from .similarity import CKAProfile, aggregate_profiles, profile_batches, select_start_layer
from .similarity import profile_layers  # perfbench/tracing.py patches it under this name

# documented accounting assumptions (fp16 weights, Adam-style fp32 moments)
PRECISION_BYTES = 2
OPTIMIZER_MULTIPLIER = 4
DEFAULT_ASSUMPTIONS = {"batch": 16, "seq_len": 512,
                       "precision_bytes": PRECISION_BYTES,
                       "optimizer_multiplier": OPTIMIZER_MULTIPLIER}

MEMORY_PRESETS = {
    "llama2-7b-shaped": StackDims(L=32, u=4096, v=64, C=32000, kind="attn-lite",
                                  ffn=11008, vocab=32000),
    "llama2-13b-shaped": StackDims(L=40, u=5120, v=64, C=32000, kind="attn-lite",
                                   ffn=13824, vocab=32000),
}

IO_NOTE = "block load/evict I/O assumed overlapped with compute; latency not modeled"
PARTITIONS = ("dirichlet", "iid")  # how `setup` shards the training rows

# seed-derivation tags; one master seed drives every stochastic choice
_TAG_STACK, _TAG_DATA, _TAG_SPLIT, _TAG_PARTITION, _TAG_SAMPLE, _TAG_UPDATE = 1, 2, 3, 4, 5, 6


def iid_partition(n_samples: int, n_clients: int, seed) -> list[np.ndarray]:
    """Shuffled near-equal split; every client gets at least one sample."""
    if n_samples < n_clients:
        raise ValueError(f"cannot split {n_samples} samples over {n_clients} clients")
    rng = np.random.default_rng(seed)
    parts = np.array_split(rng.permutation(n_samples), n_clients)
    return [np.sort(p) for p in parts]


def dirichlet_partition(labels, n_clients: int, alpha: float, seed) -> list[np.ndarray]:
    """Non-IID split: per-class client proportions drawn from Dirichlet(alpha).

    Allocations leaving a client empty are redrawn up to 100 times; as a last
    resort single samples are moved round-robin from the largest shards so the
    at-least-one-sample invariant always holds.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < n_clients:
        raise ValueError(f"need >= {n_clients} labeled samples, got shape {labels.shape}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    rng = np.random.default_rng(seed)
    classes = sorted(set(labels.tolist()))  # np.unique's order; it would import numpy.ma
    shards: list[list[int]] = []
    for _ in range(100):
        shards = [[] for _ in range(n_clients)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            proportions = rng.dirichlet(np.full(n_clients, float(alpha)))
            cuts = (np.cumsum(proportions)[:-1] * len(idx)).astype(int)
            for shard, part in zip(shards, np.split(idx, cuts)):
                shard.extend(part.tolist())
        if all(shards):
            break
    else:
        for k in range(n_clients):
            while not shards[k]:
                donor = max(range(n_clients), key=lambda j: len(shards[j]))
                shards[k].append(shards[donor].pop())
    return [np.sort(np.asarray(s, dtype=np.int64)) for s in shards]


@dataclass
class ClientProfile:
    mem_budget: float | None
    shard: np.ndarray


@dataclass
class MemReport:
    params_bytes: int
    activation_bytes: int
    adapter_and_grad_bytes: int
    optimizer_bytes: int
    peak_bytes: int = field(init=False)
    shares: dict[str, float] = field(init=False)

    def __post_init__(self):
        self.peak_bytes = (self.params_bytes + self.activation_bytes
                           + self.adapter_and_grad_bytes + self.optimizer_bytes)
        self.shares = {
            "params": self.params_bytes / self.peak_bytes,
            "activations": self.activation_bytes / self.peak_bytes,
            "adapter_and_grad": self.adapter_and_grad_bytes / self.peak_bytes,
            "optimizer": self.optimizer_bytes / self.peak_bytes,
        }

    def as_dict(self) -> dict:
        return asdict(self)


def estimate_peak_memory(dims: StackDims, batch: int, seq_len: int, Q: int | None = None,
                         mode: str = "chain", scheme: str = "window") -> MemReport:
    """Closed-form per-device peak for one training step.

    Local heads are negligible (u*C + C per layer) and excluded; the trainable
    set counted is the final head plus the adapters the trainable scheme (as
    model.mark_trainable names it) trains: the Q window adapters, all L
    ("all_adapters") or none ("final_only").  Chain mode keeps the Q-layer
    window plus one streaming block resident; everything earlier is
    transient (recomputed or evicted after consumption).  Full mode is the
    chain with one window over the whole stack, Q = L.
    """
    if mode not in ("chain", "full"):
        raise ValueError(f"mode must be 'chain' or 'full', got {mode!r}")
    if scheme not in TRAINABLE_SCHEMES:
        raise ValueError(f"unknown trainable scheme {scheme!r}")
    if batch < 1 or seq_len < 1:
        raise ValueError(f"bad batch={batch} / seq_len={seq_len}")
    if mode == "full":
        Q = dims.L
    if Q is None or not 1 <= Q <= dims.L:
        raise ValueError(f"chain mode needs Q in [1, {dims.L}], got {Q}")
    p, k = PRECISION_BYTES, OPTIMIZER_MULTIPLIER
    resident_layers, live_layers = min(Q + 1, dims.L), Q + 1
    adapters = {"window": Q, "all_adapters": dims.L, "final_only": 0}[scheme]
    trainable = adapters * adapter_param_count(dims) + head_param_count(dims)
    return MemReport(
        params_bytes=p * (embed_param_count(dims) + resident_layers * layer_param_count(dims)),
        activation_bytes=p * batch * seq_len * dims.u * live_layers,
        adapter_and_grad_bytes=p * 2 * trainable,
        optimizer_bytes=k * p * trainable,
    )


def determine_Q(min_budget: float, dims: StackDims, batch: int, seq_len: int,
                L_start: int = 1) -> int:
    """Largest window size whose chain-mode peak fits the tightest budget."""
    span = dims.L - L_start + 1
    for q in range(span, 0, -1):
        report = estimate_peak_memory(dims, batch, seq_len, Q=q)
        if report.peak_bytes <= min_budget:
            return q
    raise ValueError(
        f"budget {min_budget} is below the Q=1 peak; this device cannot participate"
    )


def sample_clients(n_clients: int, count: int, round_idx: int, seed) -> list[int]:
    """Uniform sampling without replacement; deterministic in (seed, round)."""
    if not 1 <= count <= n_clients:
        raise ValueError(f"cannot sample {count} of {n_clients} clients")
    rng = np.random.default_rng([seed, _TAG_SAMPLE, round_idx])
    return sorted(rng.choice(n_clients, size=count, replace=False).tolist())


def aggregation_weights(sizes: list[int]) -> list[Fraction]:
    """Shard-size weights as exact rationals; they sum to exactly 1."""
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError(f"shard sizes must be positive, got {sizes}")
    total = sum(sizes)
    return [Fraction(s, total) for s in sizes]


def aggregate(stack: ModelStack, deltas: list[ParamDelta], sizes: list[int]) -> dict[str, np.ndarray]:
    """Apply the weighted-mean delta in place; deltas come in ascending client order."""
    weights = [float(w) for w in aggregation_weights(sizes)]
    if len(deltas) != len(sizes):
        raise ValueError("one shard size per delta required")
    keys = list(deltas[0].keys())
    for d in deltas[1:]:
        if list(d.keys()) != keys:
            raise ValueError(f"delta key sets differ: {sorted(set(d) ^ set(keys))}")
    params = named_parameters(stack)
    for key in keys:  # every key and client before any update: a sum would broadcast
        if key not in params:
            raise ValueError(f"unknown parameter name {key!r}")
        shape = params[key].data.shape
        for d in deltas:
            if np.shape(d[key]) != shape:
                raise ValueError(f"delta shape {np.shape(d[key])} mismatches {key} {shape}")
    applied: dict[str, np.ndarray] = {}
    for key in keys:
        update = np.zeros_like(deltas[0][key])
        for w, d in zip(weights, deltas):
            update = update + w * d[key]
        params[key].data = params[key].data + update
        applied[key] = update
    return applied


@dataclass
class RoundRecord:
    round: int
    window: tuple[int, int]
    clients: list[int]
    train_loss: float
    eval_accuracy: float
    comm_bytes: int
    peak_mem_bytes: int

    def as_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window)}  # the JSON form, key order kept


@dataclass
class RunResult:
    records: list[RoundRecord]
    stack: ModelStack
    L_start: int
    Q: int
    profile: CKAProfile | None

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].eval_accuracy if self.records else float("nan")


@dataclass(frozen=True)
class RunMode:
    """What a run mode keeps of ChainFed's three techniques.

    Only the "window" scheme slides: a baseline's scheme trains past any
    window, so it runs as the chain with one window over the whole stack.
    """

    scheme: str  # the trainable set, as model.mark_trainable names it
    foat: bool = True  # function-oriented adaptive tuning: CKA start layer, else layer 1
    dlct: bool = True  # dynamic layer co-tuning: a Q-layer window, else Q = 1
    gpo: bool = True  # globally perceptive optimization: lambda-weighted global loss, else 0


RUN_MODES = {
    "chainfed": RunMode("window"),
    "full_adapters": RunMode("all_adapters", foat=False, dlct=False, gpo=False),
    "linear_probing": RunMode("final_only", foat=False, dlct=False, gpo=False),
    "no_dlct": RunMode("window", dlct=False),
    "no_gpo": RunMode("window", gpo=False),
    "no_foat": RunMode("window", foat=False),
}


def _serialized_bytes(delta: ParamDelta) -> int:
    # f32 on the wire, matching the checkpoint format
    return sum(4 * arr.size for arr in delta.values())


@dataclass
class Experiment:
    """What phase 1 and the rounds share: data, model, eval rows and client shards."""

    dataset: Dataset
    stack: ModelStack
    eval_idx: np.ndarray
    clients: list[ClientProfile]


def load_dataset(cfg) -> Dataset:
    """The dataset a config names, drawn from the experiment seed."""
    from .data import load_dataset_from_config

    return load_dataset_from_config(cfg.data, cfg.model, [cfg.model.seed, _TAG_DATA])


def stack_dims(model_cfg, dataset: Dataset) -> StackDims:
    """The shape of the stack a model config trains on a dataset."""
    return StackDims(
        L=model_cfg.L, u=model_cfg.u, v=model_cfg.v, C=dataset.C, kind=model_cfg.kind,
        ffn=model_cfg.ffn, vocab=dataset.vocab,
    )


def setup(cfg, dataset=None) -> Experiment:
    """Load the data, build the stack, split off the eval rows, shard the rest."""
    from .data import train_eval_split

    seed = cfg.model.seed
    if dataset is None:
        dataset = load_dataset(cfg)
    stack = build_stack(stack_dims(cfg.model, dataset),
                        seed=np.random.SeedSequence([seed, _TAG_STACK]),
                        init_scale=cfg.model.init_scale)

    train_idx, eval_idx = train_eval_split(len(dataset.y), cfg.data.eval_fraction,
                                           [seed, _TAG_SPLIT])
    fed = cfg.federation
    if fed.partition == "iid":
        local_shards = iid_partition(len(train_idx), fed.N, [seed, _TAG_PARTITION])
    else:
        local_shards = dirichlet_partition(dataset.y[train_idx], fed.N, fed.alpha,
                                           [seed, _TAG_PARTITION])
    budgets = fed.budgets if fed.budgets is not None else [None] * fed.N
    clients = [ClientProfile(mem_budget=budgets[i], shard=train_idx[local_shards[i]])
               for i in range(fed.N)]
    return Experiment(dataset, stack, eval_idx, clients)


def profile_clients(exp: Experiment) -> CKAProfile:
    """Each client profiles the first 64 rows of its own shard under its own budget.

    CKA needs at least 2 activation rows (samples x tokens), so a client
    with fewer sits out.  On a stack that does not mix tokens the clients
    share one walk of the frozen stack (similarity.profile_batches).  That
    is a speed-up of the simulator only, which no device could share:
    partition_layers still prices each client's own rows.
    """
    takes = [(exp.dataset.x[take], c.mem_budget) for c in exp.clients
             if len(take := c.shard[:64]) * exp.dataset.seq_len >= 2]
    if not takes:
        raise ValueError("no client holds the 2 activation rows CKA profiling needs")
    return aggregate_profiles(profile_batches(exp.stack, *zip(*takes)))


def choose_start_layer(cfg, exp: Experiment, mode: str,
                       profile: CKAProfile | None = None) -> tuple[int, CKAProfile | None]:
    """Phase 1: the first trainable layer, and the profile it was read from.

    Clients profile only when the mode and the config leave the start layer
    to CKA; a `profile` passed in is used instead of profiling again.
    """
    if not RUN_MODES[mode].foat:
        return 1, profile
    if cfg.chain.L_start is not None:
        return cfg.chain.L_start, profile
    if profile is None:
        profile = profile_clients(exp)
    return select_start_layer(profile, cfg.chain.T), profile


def window_size(cfg, dims: StackDims, seq_len: int, mode: str, L_start: int) -> int:
    """Phase 1: the one Q all devices share, sized for the tightest budget."""
    span = dims.L - L_start + 1
    keeps = RUN_MODES[mode]
    if keeps.scheme != "window":  # a baseline trains the whole span as its one window
        return span
    if not keeps.dlct:
        return 1
    if cfg.federation.Q is not None:
        return min(cfg.federation.Q, span)
    return determine_Q(min(cfg.federation.budgets), dims, cfg.chain.batch, seq_len,
                       L_start=L_start)


def run(cfg, dataset=None, mode: str | None = None, metrics_path=None,
        checkpoint_path=None, progress=None) -> RunResult:
    """Execute a federated experiment; see config.ExperimentConfig for knobs.

    Each round walks the frozen part of its steps once over the distinct ids
    of the participants' shards (model.shared_walk), and every local step of
    2 or more token rows reads its rows from that walk; a one-row step walks
    itself (model.forward_through).  That is a speed-up of the simulator
    only, which no device could share and the memory model does not count.
    run rebinds a tensor's .data and never writes an array in place, so the
    round's snapshot holds the arrays themselves and the walk stays checkable.
    """
    from .config import ExperimentConfig  # local import to keep layering acyclic

    assert isinstance(cfg, ExperimentConfig)
    mode = mode or cfg.mode
    if mode not in RUN_MODES:
        raise ValueError(f"unknown run mode {mode!r}")
    exp = setup(cfg, dataset)
    L_start, profile = choose_start_layer(cfg, exp, mode)
    Q = window_size(cfg, exp.stack.dims, exp.dataset.seq_len, mode, L_start)

    seed, fed = cfg.model.seed, cfg.federation
    dataset, stack, eval_idx = exp.dataset, exp.stack, exp.eval_idx
    dims = stack.dims
    schedule = WindowSchedule(L_start, dims.L, Q)
    stage_cfg = StageLossConfig(lam=cfg.chain.lam if RUN_MODES[mode].gpo else 0.0)
    peak = estimate_peak_memory(dims, cfg.chain.batch, exp.dataset.seq_len, Q=Q,
                                scheme=RUN_MODES[mode].scheme).peak_bytes

    records: list[RoundRecord] = []
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        for r in range(1, fed.rounds + 1):
            window = schedule.window_at_round(r)
            participants = sample_clients(fed.N, fed.sample_count, r, seed)
            trainable = mark_trainable(stack, window, RUN_MODES[mode].scheme)
            shards = [exp.clients[cid].shard for cid in participants]
            walk = shared_walk(stack, dataset.x[np.concatenate(shards)], window[1])
            snapshot = {name: t.data for name, t in trainable.items()}
            deltas, sizes, losses = [], [], []
            for cid, shard in zip(participants, shards):
                for name, t in trainable.items():
                    t.data = snapshot[name]
                delta, info = local_update(
                    stack, dataset.x[shard], dataset.y[shard], window, stage_cfg,
                    steps=cfg.chain.local_steps, lr=cfg.chain.lr,
                    batch_size=cfg.chain.batch, seed=[seed, _TAG_UPDATE, r, cid],
                    scheme=RUN_MODES[mode].scheme, walk=walk,
                )
                deltas.append(delta)
                sizes.append(len(shard))
                losses.append(info["mean_loss"])
            for name, t in trainable.items():
                t.data = snapshot[name]
            aggregate(stack, deltas, sizes)
            record = RoundRecord(
                round=r,
                window=window,
                clients=participants,
                train_loss=float(np.mean(losses)),
                eval_accuracy=evaluate_accuracy(stack, dataset.x[eval_idx], dataset.y[eval_idx]),
                comm_bytes=2 * len(participants) * _serialized_bytes(deltas[0]),
                peak_mem_bytes=peak,
            )
            records.append(record)
            if sink:
                sink.write(json.dumps(record.as_dict()) + "\n")
            if progress:
                progress(record)
    finally:
        if sink:
            sink.close()

    if checkpoint_path:
        from .checkpoint import save_checkpoint

        save_checkpoint(stack, checkpoint_path)
    return RunResult(records=records, stack=stack, L_start=L_start, Q=Q, profile=profile)

