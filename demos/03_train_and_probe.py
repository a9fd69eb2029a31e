"""Pretrain a tiny encoder on synthetic data, then probe what it knows.

Takes about a minute on a laptop CPU.

Run: python3 demos/03_train_and_probe.py
"""

from chronolm import (
    Granularity,
    ModelConfig,
    TimePoint,
    TrainConfig,
    annotate,
    build_labelspace,
    build_vocab,
    example_provider,
    mrr,
    pretrain,
    similarity_rank,
    synth_corpus,
    truncate,
)
from chronolm.model import EncoderCheckpoint, finetune, prepare_labeled
from chronolm.objectives import Objective
from chronolm.synth import synth_events

# a 24-month world where a marker token and an embedded date agree
space = build_labelspace(TimePoint(1990, 1), TimePoint(1991, 12),
                         Granularity.MONTH)
docs = synth_corpus(600, space, noise=0.0, seed=0)
vocab = build_vocab(docs, max_size=2048, include_timestamps=True)
print(f"{len(docs)} documents, vocabulary {vocab.size}")
print("sample:", docs[0].text, "\n")

tagged = [(d, annotate(d.text, d.timestamp)) for d in docs]
provider = example_provider(
    tagged, vocab, frozenset({Objective.TAMLM, Objective.DTP}), space, seed=0)

model_cfg = ModelConfig(vocab_size=vocab.size, max_len=64, d_model=32,
                        n_layers=1, n_heads=2, d_ff=64, dropout=0.0,
                        k_dtp=space.size, seed=0)
train_cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=6,
                        objectives=frozenset({Objective.TAMLM,
                                              Objective.DTP}))
ckpt, log = pretrain(provider, vocab, model_cfg, train_cfg, seed=0)
for name in ("tamlm", "dtp"):
    series = [v for _, n, v in log if n == name]
    print(f"{name}: first {series[0]:.3f} -> last {series[-1]:.3f}")

# fine-tune a year classifier on synthetic one-line events, then rank
years = build_labelspace(TimePoint(1990), TimePoint(1991), Granularity.YEAR)
events = synth_events(60, years, noise=0.0, seed=1)
records = prepare_labeled(events, years, vocab, model_cfg.max_len)
tuned, _ = finetune(ckpt, records, years.size,
                    TrainConfig(learning_rate=1e-3, batch_size=16, epochs=8,
                                objectives=frozenset()), seed=0)

held_out = synth_events(20, years, noise=0.0, seed=2)
queries = [
    similarity_rank(tuned, e.text, years,
                    relevant=[truncate(e.time, Granularity.YEAR)])
    for e in held_out
]
print(f"\nprobe MRR over {len(queries)} held-out events: {mrr(queries):.3f}")
top = queries[0]
print(f"query: {top.query!r}")
for rank, (point, score) in enumerate(top.ranking, start=1):
    marker = " <- gold" if point in top.relevant else ""
    print(f"  {rank}. {point.isoformat()}  cos {score:+.4f}{marker}")
