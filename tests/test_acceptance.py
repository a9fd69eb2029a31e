"""Acceptance gate: eleven end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line (through the capture guard, so the
lines are visible in normal pytest runs) and then asserts.
"""

import itertools
import math
import time

import numpy as np
import pytest

from chronolm.cli import main as cli_main
from chronolm.corpus import (
    CLS,
    MASK,
    SEP,
    Document,
    build_vocab,
    tokenize,
)
from chronolm.evaluation import Prediction, RankedDates, accuracy, mae, \
    mean_average_precision, mrr, random_guess, similarity_rank
from chronolm.model import (
    EncoderCheckpoint,
    ModelConfig,
    TrainConfig,
    encode_batch,
    finetune,
    grad_check,
    predict_dtp,
    prepare_labeled,
    pretrain,
)
from chronolm.model.network import encoder_forward
from chronolm.objectives import (
    IGNORE_INDEX,
    MaskAction,
    MaskPlan,
    Objective,
    TIR_KEPT,
    TIR_REPLACED,
    apply_plan,
    build_labelspace,
    build_tir,
    collect_expression_pool,
    example_provider,
    plan_tamlm,
)
from chronolm.synth import synth_corpus, synth_events
from chronolm.temporal import (
    Granularity,
    TimePoint,
    annotate,
    distance,
    normalize,
    render,
    truncate,
)
from chronolm.util import rng_from, write_jsonl

from oracles import (
    WEEKDAY_NAMES,
    accuracy_percent,
    average_precision,
    build_day_numbers,
    mean_abs_error,
    month_distance,
    reciprocal_rank,
    weekday_index,
)


def recognize_one(text):
    from chronolm.temporal import recognize
    exprs = recognize(text)
    assert len(exprs) == 1, text
    return exprs


def report(capsys, num, ok, label, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


# ----------------------------------------------------------- shared fixtures

@pytest.fixture(scope="module")
def masking_fixture():
    """500 synthetic docs (plus 50 without any expressions), tokenized."""
    space = build_labelspace(TimePoint(1990, 1), TimePoint(1993, 12),
                             Granularity.MONTH)
    docs = list(synth_corpus(450, space, seed=41))
    for i in range(50):
        docs.append(Document(f"plain-{i}", TimePoint(1991, 1, 1),
                             "the committee drafted the report and "
                             "filed the survey with the council"))
    vocab = build_vocab(docs, max_size=4096, include_timestamps=True)
    toks = [tokenize(d, vocab, annotate(d.text, d.timestamp)) for d in docs]
    return docs, vocab, toks


@pytest.fixture(scope="module")
def month48():
    return build_labelspace(TimePoint(1990, 1), TimePoint(1993, 12),
                            Granularity.MONTH)


def provider_for(docs, vocab, objectives, space, seed):
    tagged = [(d, annotate(d.text, d.timestamp)) for d in docs]
    return example_provider(tagged, vocab, objectives, space, seed=seed)


SMALL_TRAIN = dict(learning_rate=1e-3, batch_size=16, grad_accumulation=1)


def small_model(vocab_size, **kw):
    base = dict(vocab_size=vocab_size, max_len=64, d_model=32, n_layers=1,
                n_heads=2, d_ff=64, dropout=0.0, seed=0)
    base.update(kw)
    return ModelConfig(**base)


# -------------------------------------------------------------- criterion 1

def test_criterion_01_calendar_oracle(capsys):
    """normalize, truncate, and distance against pure day iteration."""
    t0 = time.perf_counter()
    numbers = build_day_numbers(1600, 2100)
    days = list(numbers)
    by_number = {v: k for k, v in numbers.items()}
    rng = rng_from(0, "calendar-acceptance")
    exact = cases = 0

    def check(got, expected):
        nonlocal exact, cases
        cases += 1
        exact += got == expected

    for _ in range(1000):
        i, j = (int(x) for x in rng.integers(0, len(days), size=2))
        a, b = days[i], days[j]
        anchor = TimePoint(*a)

        check(distance(anchor, TimePoint(*b), Granularity.DAY),
              abs(numbers[a] - numbers[b]))
        check(truncate(anchor, Granularity.MONTH), TimePoint(a[0], a[1]))
        check(truncate(anchor, Granularity.YEAR), TimePoint(a[0]))

        n = int(rng.integers(1, 1000))  # count grammar caps at 3 digits
        if numbers[a] - n >= 0:
            expr, = recognize_one(f"{n} days ago")
            check(normalize(expr, anchor),
                  TimePoint(*by_number[numbers[a] - n]))
        if numbers[a] + n < len(by_number):
            expr, = recognize_one(f"in {n} days")
            check(normalize(expr, anchor),
                  TimePoint(*by_number[numbers[a] + n]))

        if numbers[a] >= 7:
            w = int(rng.integers(0, 7))
            back = next(k for k in range(1, 8)
                        if weekday_index(numbers,
                                         by_number[numbers[a] - k]) == w)
            expr, = recognize_one(f"on {WEEKDAY_NAMES[w]}")
            check(normalize(expr, anchor),
                  TimePoint(*by_number[numbers[a] - back]))

    elapsed = time.perf_counter() - t0
    ok = exact == cases and cases >= 1000 and elapsed < 10
    report(capsys, 1, ok, "calendar ops match day-iteration oracle",
           f"{exact}/{cases} exact over 1000 random cases in "
           f"{elapsed:.2f}s (limit 10s)")


# -------------------------------------------------------------- criterion 2

def test_criterion_02_mask_budget_law(capsys, masking_fixture):
    docs, vocab, toks = masking_fixture
    t0 = time.perf_counter()
    violations = 0
    plans = 0
    for seed in range(20):
        for tok in toks:
            plan = plan_tamlm(tok, 0.3, 0.15, rng_from(seed, tok.doc_id, "c2"))
            plans += 1
            n = len(tok.token_ids)
            covered = set()
            for gi in plan.sampled_expressions:
                covered.update(tok.temporal_groups[gi].positions)
            masked = set(plan.masked_positions)
            if len(masked) != max(math.ceil(0.15 * n), len(covered)):
                violations += 1
                continue
            if not covered <= masked:
                violations += 1
                continue
            for gi, g in enumerate(tok.temporal_groups):
                overlap = set(g.positions) & masked
                if gi in plan.sampled_expressions:
                    if overlap != set(g.positions):
                        violations += 1  # split span
                elif overlap:
                    violations += 1  # protection breach
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30
    report(capsys, 2, ok, "mask budget, whole spans, protection",
           f"{plans} plans, {violations} violations in {elapsed:.2f}s "
           f"(limit 30s)")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_action_rates(capsys, masking_fixture):
    docs, vocab, toks = masking_fixture
    t0 = time.perf_counter()
    counts = {MaskAction.MASK: 0, MaskAction.RANDOM: 0, MaskAction.KEEP: 0}
    total = 0
    seed = 0
    while total < 10000:
        for tok in toks:
            plan = plan_tamlm(tok, 0.3, 0.15, rng_from(seed, tok.doc_id, "c3"))
            for a in plan.actions:
                counts[a] += 1
                total += 1
        seed += 1
    rates = {a: c / total for a, c in counts.items()}
    elapsed = time.perf_counter() - t0
    ok = (abs(rates[MaskAction.MASK] - 0.80) < 0.02
          and abs(rates[MaskAction.RANDOM] - 0.10) < 0.015
          and abs(rates[MaskAction.KEEP] - 0.10) < 0.015
          and elapsed < 30)
    report(capsys, 3, ok, "mask/random/keep rates near 80/10/10",
           f"{rates[MaskAction.MASK]:.3f}/{rates[MaskAction.RANDOM]:.3f}/"
           f"{rates[MaskAction.KEEP]:.3f} over {total} positions in "
           f"{elapsed:.2f}s (tolerance .02/.015/.015, limit 30s)")


# -------------------------------------------------------------- criterion 4

def test_criterion_04_tir_replacement(capsys):
    t0 = time.perf_counter()
    months = ["January", "February", "March", "April", "May", "June",
              "July", "August", "September", "October", "November",
              "December"]
    docs = []
    for i in range(500):
        month = months[i % 12]
        year = 1988 + (i % 7)
        docs.append(Document(
            f"tir-{i}", TimePoint(2000, 1, 1),
            f"the committee met in {month} {year} and drafted the report"))
    vocab = build_vocab(docs, max_size=4096, include_timestamps=True)
    tagged = [(d, annotate(d.text, d.timestamp)) for d in docs]
    toks = [tokenize(d, vocab, e) for d, e in tagged]
    pool = collect_expression_pool(tagged)
    by_tokens = {}
    for entry in pool.for_granularity(Granularity.MONTH):
        ids = tuple(vocab.id_of(f) for f, _, _ in
                    __import__("chronolm.corpus",
                               fromlist=["word_spans"]).word_spans(entry.surface))
        by_tokens[ids] = entry.value

    prefix_ids = tuple(
        vocab.id_of(f) for f, _, _ in
        __import__("chronolm.corpus",
                   fromlist=["word_spans"]).word_spans(render(TimePoint(2000, 1, 1))))

    total = replaced = bad = prefix_bad = 0
    for epoch in range(20):
        for (doc, exprs), tok in zip(tagged, toks):
            ex = build_tir(doc, tok, pool, 0.5, vocab, seed=9, epoch=epoch)
            first_sep = ex.input_ids.index(SEP)
            if tuple(ex.input_ids[1:first_sep]) != prefix_ids:
                prefix_bad += 1
            gold, = tok.temporal_groups
            slot, = ex.slots
            inner = tuple(ex.input_ids[slot.boundary_left + 1:
                                       slot.boundary_right])
            original = tuple(tok.token_ids[gold.token_start:gold.token_end])
            total += 1
            if slot.label == TIR_REPLACED:
                replaced += 1
                value = by_tokens.get(inner)
                if value is None or value == gold.normalized:
                    bad += 1
            elif inner != original:
                bad += 1
    rate = replaced / total
    elapsed = time.perf_counter() - t0
    ok = (abs(rate - 0.5) < 0.02 and bad == 0 and prefix_bad == 0
          and elapsed < 30)
    report(capsys, 4, ok, "replacement rate and same-granularity swaps",
           f"rate {rate:.3f} over {total} slots, {bad} bad swaps, "
           f"{prefix_bad} prefix edits in {elapsed:.2f}s "
           f"(tolerance .02, limit 30s)")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_gradient_check(capsys):
    t0 = time.perf_counter()
    err_joint = grad_check(objectives=(Objective.TAMLM, Objective.DTP))
    err_tir = grad_check(objectives=(Objective.TIR,))
    elapsed = time.perf_counter() - t0
    ok = err_joint < 1e-4 and err_tir < 1e-4 and elapsed < 60
    report(capsys, 5, ok, "analytic gradients match finite differences",
           f"max rel err {err_joint:.2e} (joint), {err_tir:.2e} "
           f"(replacement head) in {elapsed:.2f}s (limit 1e-4, 60s)")


# -------------------------------------------------------------- criterion 6

def test_criterion_06_random_guess(capsys):
    t0 = time.perf_counter()
    space = build_labelspace(TimePoint(1987), TimePoint(2007), Granularity.YEAR)
    k = space.size
    golds = [space.point_at(i % k) for i in range(210)]
    acc, err = random_guess(space, golds, trials=1000, seed=0)
    expected_acc = 100.0 / k
    expected_mae = (k * k - 1) / (3 * k)
    elapsed = time.perf_counter() - t0
    ok = (abs(acc - expected_acc) < 0.3 and abs(err - expected_mae) < 0.15
          and elapsed < 10)
    report(capsys, 6, ok, "random-guess baseline matches analytic values",
           f"acc {acc:.3f} vs {expected_acc:.3f} (tol .3), "
           f"mae {err:.3f} vs {expected_mae:.3f} (tol .15) in {elapsed:.2f}s")


# -------------------------------------------------------- criteria 7 and 8

@pytest.fixture(scope="module")
def learnability_corpus(month48):
    """2000 clean synthetic docs over 48 month classes, split 1600/400."""
    docs = synth_corpus(2000, month48, noise=0.0, seed=101)
    train_docs, test_docs = docs[:1600], docs[1600:]
    vocab = build_vocab(train_docs, max_size=4096)
    return train_docs, test_docs, vocab


def dtp_heldout_accuracy(train_docs, test_docs, vocab, month48):
    cfg = small_model(vocab.size, k_dtp=month48.size)
    objectives = frozenset({Objective.TAMLM, Objective.DTP})
    provider = provider_for(train_docs, vocab, objectives, month48, seed=1)
    train_cfg = TrainConfig(epochs=8, objectives=objectives, **SMALL_TRAIN)
    ckpt, _ = pretrain(provider, vocab, cfg, train_cfg, seed=1)
    test_provider = provider_for(test_docs, vocab,
                                 frozenset({Objective.DTP}), month48, seed=2)
    examples = test_provider(0)  # no masks: clean inputs with labels
    picks = predict_dtp(ckpt, [e.input_ids for e in examples])
    golds = np.array([e.dtp_label for e in examples])
    return float(100.0 * np.mean(picks == golds))


def test_criterion_07_dtp_learnability(capsys, month48, learnability_corpus):
    t0 = time.perf_counter()
    train_docs, test_docs, vocab = learnability_corpus
    acc_clean = dtp_heldout_accuracy(train_docs, test_docs, vocab, month48)
    noisy = synth_corpus(2000, month48, noise=1.0, seed=102)
    noisy_vocab = build_vocab(noisy[:1600], max_size=4096)
    acc_noise = dtp_heldout_accuracy(noisy[:1600], noisy[1600:], noisy_vocab,
                                     month48)
    chance = 100.0 / month48.size
    elapsed = time.perf_counter() - t0
    ok = acc_clean >= 90.0 and acc_noise <= 3 * chance and elapsed < 600
    report(capsys, 7, ok, "timestamp head learns real signal only",
           f"held-out acc {acc_clean:.1f}% clean (need >=90), "
           f"{acc_noise:.1f}% shuffled (cap {3 * chance:.1f}) in "
           f"{elapsed:.0f}s (limit 600s)")


def masked_temporal_recovery(ckpt, toks, vocab):
    """Mask every temporal token, then measure argmax recovery."""
    correct = total = 0
    for tok in toks:
        positions = []
        for g in tok.temporal_groups:
            positions.extend(g.positions)
        if not positions:
            continue
        positions = sorted(positions)
        plan = MaskPlan(
            sampled_expressions=tuple(range(len(tok.temporal_groups))),
            masked_positions=tuple(positions),
            actions=tuple(MaskAction.MASK for _ in positions),
        )
        ex = apply_plan(tok, plan, vocab, rng_from(0))
        ids = np.array([ex.input_ids])
        hidden, _ = encoder_forward(ckpt.params, ckpt.config, ids)
        w, b = ckpt.params["head.mlm.w"], ckpt.params["head.mlm.b"]
        logits = hidden[0] @ w + b
        for pos, label in enumerate(ex.mlm_labels):
            if label != IGNORE_INDEX:
                total += 1
                correct += int(np.argmax(logits[pos]) == label)
    return 100.0 * correct / total


def test_criterion_08_temporal_masking_beats_uniform(capsys, month48,
                                                     learnability_corpus):
    t0 = time.perf_counter()
    train_docs, test_docs, vocab = learnability_corpus
    eval_toks = [tokenize(d, vocab, annotate(d.text, d.timestamp))
                 for d in test_docs]
    accs = {}
    for objective in (Objective.TAMLM, Objective.MLM):
        cfg = small_model(vocab.size)
        provider = provider_for(train_docs, vocab, frozenset({objective}),
                                None, seed=3)
        train_cfg = TrainConfig(epochs=30, objectives=frozenset({objective}),
                                **SMALL_TRAIN)
        ckpt, _ = pretrain(provider, vocab, cfg, train_cfg, seed=3)
        accs[objective] = masked_temporal_recovery(ckpt, eval_toks, vocab)
    gap = accs[Objective.TAMLM] - accs[Objective.MLM]
    elapsed = time.perf_counter() - t0
    ok = gap >= 5.0 and elapsed < 1200
    report(capsys, 8, ok, "expression-aware masking recovers dates better",
           f"recovery {accs[Objective.TAMLM]:.1f}% vs "
           f"{accs[Objective.MLM]:.1f}% uniform, gap {gap:.1f} "
           f"(need >=5.0) in {elapsed:.0f}s (limit 1200s)")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_probe_mrr(capsys):
    t0 = time.perf_counter()
    space = build_labelspace(TimePoint(1987), TimePoint(2007), Granularity.YEAR)
    train_events = synth_events(630, space, noise=0.0, seed=301)
    test_events = synth_events(105, space, noise=0.0, seed=302)
    vocab_docs = [Document(f"e{i}", TimePoint(2000, 1, 1), e.text)
                  for i, e in enumerate(train_events)]
    vocab = build_vocab(vocab_docs, max_size=4096)
    cfg = small_model(vocab.size)
    base = EncoderCheckpoint.fresh(cfg, vocab)
    records = prepare_labeled(train_events, space, vocab, cfg.max_len)
    train_cfg = TrainConfig(epochs=12, objectives=frozenset(), **SMALL_TRAIN)
    tuned, _ = finetune(base, records, space.size, train_cfg, seed=4)
    queries = [
        similarity_rank(tuned, e.text, space,
                        relevant=[truncate(e.time, Granularity.YEAR)])
        for e in test_events
    ]
    score = mrr(queries)
    elapsed = time.perf_counter() - t0
    ok = score >= 0.5 and elapsed < 600
    report(capsys, 9, ok, "probe ranks the right year near the top",
           f"MRR {score:.3f} over {len(queries)} queries x {space.size} "
           f"candidates (need >=0.5) in {elapsed:.0f}s (limit 600s)")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_metric_oracles(capsys):
    t0 = time.perf_counter()

    def ranked_from_order(order, relevant):
        ranking = tuple((TimePoint(1900 + o), float(len(order) - i))
                        for i, o in enumerate(order))
        return RankedDates("q", ranking,
                           frozenset(TimePoint(1900 + r) for r in relevant))

    def check_predictions(pairs):
        preds = [Prediction(TimePoint(*p), TimePoint(*g), Granularity.MONTH)
                 for p, g in pairs]
        want_acc = accuracy_percent([(p[:2], g[:2]) for p, g in pairs])
        want_mae = mean_abs_error(
            [month_distance(p[:2], g[:2]) for p, g in pairs])
        return max(abs(accuracy(preds) - want_acc),
                   abs(mae(preds, Granularity.MONTH) - want_mae))

    worst = 0.0
    # accuracy and mae are order-invariant, so every multiset of day-level
    # pairs over a 3x3 domain is every input of size <= 6
    days = ((2000, 12, 7), (2001, 2, 28), (2002, 3, 1))
    domain = [(p, g) for p in days for g in days]
    for size in range(1, 7):
        for pairs in itertools.combinations_with_replacement(domain, size):
            worst = max(worst, check_predictions(pairs))
    # mrr and map: every permutation with every relevant target or subset
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            for rel in range(n):
                got = mrr([ranked_from_order(list(perm), [rel])])
                worst = max(worst, abs(got - reciprocal_rank(list(perm), rel)))
            for r in range(1, n + 1):
                for rel in itertools.combinations(range(n), r):
                    got = mean_average_precision(
                        [ranked_from_order(list(perm), list(rel))])
                    worst = max(worst, abs(
                        got - average_precision(list(perm), set(rel))))
    rng = rng_from(2, "c10")
    for _ in range(1000):
        n = int(rng.integers(7, 41))
        perm = list(rng.permutation(n))
        rel = [int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                          replace=False)]
        got = mean_average_precision([ranked_from_order(perm, rel)])
        worst = max(worst, abs(got - average_precision(perm, set(rel))))
        got = mrr([ranked_from_order(perm, [rel[0]])])
        worst = max(worst, abs(got - reciprocal_rank(perm, rel[0])))
        pairs = [((2000 + int(rng.integers(0, 3)), int(rng.integers(1, 13)),
                   int(rng.integers(1, 29))),
                  (2000 + int(rng.integers(0, 3)), int(rng.integers(1, 13)),
                   int(rng.integers(1, 29))))
                 for _ in range(n)]
        worst = max(worst, check_predictions(pairs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30
    report(capsys, 10, ok, "scoring metrics match first-principles oracles",
           f"worst abs err {worst:.2e} over exhaustive (size <= 6) plus "
           f"1000 random cases in {elapsed:.2f}s (tolerance 1e-12)")


# ------------------------------------------------------------- criterion 11

PIPE_CONFIG = """
[run]
seed = 17

[labelspace]
start = 1990-01
end = 1990-12
granularity = month

[model]
d_model = 32
n_layers = 1
n_heads = 2
d_ff = 64
max_len = 64

[train]
objectives = tamlm,dtp
learning_rate = 1e-3
batch_size = 8
grad_accumulation = 2
epochs = 2
"""


def test_criterion_11_pipeline_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    space = build_labelspace(TimePoint(1990, 1), TimePoint(1990, 12),
                             Granularity.MONTH)
    docs = synth_corpus(60, space, seed=7)
    write_jsonl(str(tmp_path / "corpus.jsonl"), [
        {"id": d.id, "timestamp": d.timestamp.isoformat(), "text": d.text}
        for d in docs
    ])
    (tmp_path / "run.cfg").write_text(PIPE_CONFIG)

    def run_pipeline(tag_out, data_out, ckpt_out, log_out):
        assert cli_main(["tag", "--corpus", str(tmp_path / "corpus.jsonl"),
                         "--out", tag_out]) == 0
        assert cli_main(["build-vocab", "--corpus",
                         str(tmp_path / "corpus.jsonl"),
                         "--out", str(tmp_path / "vocab.txt")]) == 0
        assert cli_main(["build-dataset", "--config",
                         str(tmp_path / "run.cfg"),
                         "--tagged", tag_out,
                         "--vocab", str(tmp_path / "vocab.txt"),
                         "--objectives", "tamlm,dtp",
                         "--out", data_out]) == 0
        assert cli_main(["pretrain", "--config", str(tmp_path / "run.cfg"),
                         "--tagged", tag_out,
                         "--vocab", str(tmp_path / "vocab.txt"),
                         "--out", ckpt_out, "--loss-log", log_out]) == 0

    outs = []
    for trial in ("a", "b"):
        names = tuple(str(tmp_path / f"{n}-{trial}") for n in
                      ("tagged.jsonl", "dataset.jsonl", "enc.ckpt",
                       "loss.csv"))
        run_pipeline(*names)
        outs.append(names)
    identical = all(
        open(x, "rb").read() == open(y, "rb").read()
        for x, y in zip(*outs)
    )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 300
    report(capsys, 11, ok, "tag, dataset, and training bytes reproduce",
           f"{'identical' if identical else 'DIFFER'} across reruns in "
           f"{elapsed:.0f}s (limit 300s)")
