"""A small federated experiment: chain training vs its ablations."""
from fedchain.config import parse_config
from fedchain.federation import run

# 12 clients on a non-IID shard split; every client fits the same Q=2 window.
cfg = parse_config({
    "model": {"L": 4, "u": 16, "v": 4, "kind": "mlp", "seed": 3},
    "data": {"kind": "cluster-tokens", "M": 600, "seq_len": 10, "vocab": 30,
             "signal": 0.3, "eval_fraction": 0.25},
    "federation": {"N": 12, "rounds": 40, "partition": "dirichlet",
                   "alpha": 1.0, "sample_count": 8, "Q": 2},
    "chain": {"lambda": 0.2, "L_start": 1, "lr": 0.4, "local_steps": 2,
              "batch": 32},
})

result = run(cfg)
print("round  window  train_loss  eval_acc")
for rec in result.records[::8] + result.records[-1:]:
    print(f"  {rec.round:>3}   {rec.window}   {rec.train_loss:9.4f}   "
          f"{rec.eval_accuracy:.3f}")
print(f"\nper-round upload+download: {result.records[-1].comm_bytes} bytes")
print(f"per-client training peak:  {result.records[-1].peak_mem_bytes} bytes")

# The ablations reuse the identical seed, data, and round budget.
for mode in ("no_gpo", "no_dlct", "linear_probing"):
    ablation = run(cfg, mode=mode)
    print(f"{mode:<15} final accuracy {ablation.final_accuracy:.3f}   "
          f"(chainfed {result.final_accuracy:.3f})")
