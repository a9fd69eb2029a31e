"""Independent reference implementations used to check the library.

Everything here is deliberately naive: day arithmetic by stepping one
day at a time with hand-written leap rules, ranking metrics computed
from first principles, the encoder's elementwise kernels as plain
expressions, and the temporal tagger that scans with every rule.  None
of it imports the package under test.
"""

from __future__ import annotations

import hashlib
import math
import re
from datetime import date, timedelta

import numpy as np


def leap(year: int) -> bool:
    if year % 400 == 0:
        return True
    if year % 100 == 0:
        return False
    return year % 4 == 0


_MONTH_LEN = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def month_length(year: int, month: int) -> int:
    if month == 2 and leap(year):
        return 29
    return _MONTH_LEN[month - 1]


def next_day(ymd):
    y, m, d = ymd
    if d < month_length(y, m):
        return (y, m, d + 1)
    if m < 12:
        return (y, m + 1, 1)
    return (y + 1, 1, 1)


def build_day_numbers(first_year: int, last_year: int) -> dict:
    """Number every day from first_year-01-01 (0) by single-day steps."""
    numbers = {}
    ymd = (first_year, 1, 1)
    n = 0
    while ymd[0] <= last_year:
        numbers[ymd] = n
        ymd = next_day(ymd)
        n += 1
    return numbers


def day_distance(numbers: dict, a, b) -> int:
    return abs(numbers[a] - numbers[b])


WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                 "Saturday", "Sunday")


def weekday_index(numbers: dict, ymd) -> int:
    # anchored on 2000-01-01 having been a Saturday (index 5)
    return (numbers[ymd] - numbers[(2000, 1, 1)] + 5) % 7


def month_distance(a, b) -> int:
    return abs((a[0] * 12 + a[1]) - (b[0] * 12 + b[1]))


def reciprocal_rank(ranking, relevant) -> float:
    """ranking is a list of items, relevant a single item."""
    for i, item in enumerate(ranking, start=1):
        if item == relevant:
            return 1.0 / i
    return 0.0


def average_precision(ranking, relevant) -> float:
    """relevant is a set of items; AP averages precision at each hit."""
    hits = 0
    precisions = []
    for i, item in enumerate(ranking, start=1):
        if item in relevant:
            hits += 1
            precisions.append(hits / i)
    return sum(precisions) / len(relevant)


def accuracy_percent(pairs) -> float:
    correct = sum(1 for p, g in pairs if p == g)
    return 100.0 * correct / len(pairs)


def mean_abs_error(values) -> float:
    return sum(abs(v) for v in values) / len(values)


# The encoder's elementwise kernels as plain numpy expressions: the forms
# the in-place kernels in chronolm.model.network must reproduce bit for bit.

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
_LN_EPS = 1e-5


def gelu(x):
    inner = _SQRT_2_OVER_PI * (x + _GELU_C * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad(x):
    x2 = x * x
    inner = _SQRT_2_OVER_PI * (x + _GELU_C * (x2 * x))
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _SQRT_2_OVER_PI * (
        1.0 + 3.0 * _GELU_C * x2
    )


def softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def dropout_mask(rng, shape, prob, dtype):
    keep = (rng.random(shape) >= prob).astype(dtype)
    return keep / dtype.type(1.0 - prob)


# The four-block head code that drove ``batch_losses`` before its heads ran
# from one table.  The table-driven version must reproduce its parts, item
# counts and gradients bit for bit.  The encoder passes are handed in, so
# this module still imports nothing from the package.

IGNORE_INDEX = -100


def batch_counts(batch) -> dict:
    out = {"mlm": 0, "dtp": 0, "tir": 0, "cls": 0}
    if batch.mlm_labels is not None:
        out["mlm"] = int((batch.mlm_labels != IGNORE_INDEX).sum())
    if batch.dtp_labels is not None:
        out["dtp"] = int((batch.dtp_labels >= 0).sum())
    if batch.slots is not None:
        out["tir"] = int(batch.slots.shape[0])
    if batch.cls_labels is not None:
        out["cls"] = int((batch.cls_labels >= 0).sum())
    return out


def _ce_rows(logits, labels):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(logits.shape[0])
    ce_sum = float(-logp[rows, labels].sum())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return ce_sum, dlogits


def batch_losses(params, cfg, batch, encoder_forward, encoder_backward,
                 denoms=None, train=False, rng=None, want_grads=True):
    hidden, cache = encoder_forward(params, cfg, batch.ids, train, rng)
    counts = batch_counts(batch)
    if denoms is None:
        denoms = {k: float(v) for k, v in counts.items()}

    parts = {}
    dh = np.zeros_like(hidden) if want_grads else None
    grads = {}

    if batch.mlm_labels is not None and counts["mlm"]:
        pos = np.argwhere(batch.mlm_labels != IGNORE_INDEX)
        hp = hidden[pos[:, 0], pos[:, 1]]
        logits = hp @ params["head.mlm.w"] + params["head.mlm.b"]
        labels = batch.mlm_labels[pos[:, 0], pos[:, 1]]
        ce_sum, dlogits = _ce_rows(logits, labels)
        parts["mlm"] = (ce_sum, counts["mlm"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["mlm"])
            grads["head.mlm.w"] = hp.T @ dlogits
            grads["head.mlm.b"] = dlogits.sum(axis=0)
            np.add.at(dh, (pos[:, 0], pos[:, 1]), dlogits @ params["head.mlm.w"].T)

    if batch.dtp_labels is not None and counts["dtp"]:
        mask = batch.dtp_labels >= 0
        hc = hidden[mask, 0]
        logits = hc @ params["head.dtp.w"] + params["head.dtp.b"]
        ce_sum, dlogits = _ce_rows(logits, batch.dtp_labels[mask])
        parts["dtp"] = (ce_sum, counts["dtp"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["dtp"])
            grads["head.dtp.w"] = hc.T @ dlogits
            grads["head.dtp.b"] = dlogits.sum(axis=0)
            dh[mask, 0] += dlogits @ params["head.dtp.w"].T

    if batch.cls_labels is not None and counts["cls"]:
        mask = batch.cls_labels >= 0
        hc = hidden[mask, 0]
        logits = hc @ params["head.cls.w"] + params["head.cls.b"]
        ce_sum, dlogits = _ce_rows(logits, batch.cls_labels[mask])
        parts["cls"] = (ce_sum, counts["cls"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["cls"])
            grads["head.cls.w"] = hc.T @ dlogits
            grads["head.cls.b"] = dlogits.sum(axis=0)
            dh[mask, 0] += dlogits @ params["head.cls.w"].T

    if batch.slots is not None and counts["tir"]:
        ex, left, right, labels = (batch.slots[:, j] for j in range(4))
        feats = np.concatenate([hidden[ex, left], hidden[ex, right]], axis=-1)
        logits = feats @ params["head.tir.w"] + params["head.tir.b"]
        ce_sum, dlogits = _ce_rows(logits, labels)
        parts["tir"] = (ce_sum, counts["tir"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["tir"])
            grads["head.tir.w"] = feats.T @ dlogits
            grads["head.tir.b"] = dlogits.sum(axis=0)
            dfeats = dlogits @ params["head.tir.w"].T
            d = cfg.d_model
            np.add.at(dh, (ex, left), dfeats[:, :d])
            np.add.at(dh, (ex, right), dfeats[:, d:])

    if want_grads:
        grads.update(encoder_backward(params, cfg, cache, dh))
        for name, p in params.items():
            if name not in grads:
                grads[name] = np.zeros_like(p)
    return parts, grads


# ---------------------------------------------------------------------------
# The optimizer step and accumulation loop as ``chronolm.model.training`` ran
# them before parameters, gradients and moments moved into one flat arena:
# the loops copied their parameters, each micro-batch's gradients came back
# as fresh per-tensor arrays (absent heads zero-filled) and were summed
# tensor by tensor, and AdamW updated one tensor at a time.  ``batch_losses``
# and the error type are handed in, so this module still imports nothing
# from the package.


class AdamState:
    def __init__(self, m, v):
        self.step = 0
        self.m = m
        self.v = v

    @classmethod
    def for_params(cls, params):
        # The loops trained on copies: {k: p.copy() for k, p in ...}.
        for name in params:
            params[name] = params[name].copy()
        return cls({k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()})


def adamw_step(params, grads, state, cfg, error):
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise error(f"gradient for {name} is not finite")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        update = m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if cfg.weight_decay:
            update = update + cfg.weight_decay * p
        p -= cfg.learning_rate * update
    return params, state


def run_step(params, cfg, micro_batches, train_cfg, state, rng, batch_losses,
             error):
    denoms = {}
    for b in micro_batches:
        for k, v in batch_counts(b).items():
            if v:
                denoms[k] = denoms.get(k, 0.0) + v
    totals = {}
    accum = None
    for b in micro_batches:
        parts, grads = batch_losses(params, cfg, b, denoms=dict(denoms),
                                    train=True, rng=rng, want_grads=True)
        for k, (ce_sum, _) in parts.items():
            totals[k] = totals.get(k, 0.0) + ce_sum
        if accum is None:
            accum = grads
        else:
            for name in accum:
                accum[name] += grads[name]
    adamw_step(params, accum, state, train_cfg, error)
    return {k: totals[k] / denoms[k] for k in totals}


# ---------------------------------------------------------------------------
# The temporal tagger as it stood before rule gating: every rule scans every
# text, and relative shifts may leave the calendar (years 1 to 9999).  A
# point is a (year, month, day) tuple with None for absent fields; an
# expression is (start, end, surface, point, resolvable).  Weekday shifts
# past the calendar's ends raise OverflowError here, as they did then.

_MONTHS = ("january", "february", "march", "april", "may", "june", "july",
           "august", "september", "october", "november", "december")
_WEEKDAYS = tuple(w.lower() for w in WEEKDAY_NAMES)
_NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}
_MONTH_RX = "|".join(_MONTHS)
_WEEKDAY_RX = "|".join(_WEEKDAYS)
_COUNT_RX = r"\d{1,3}|" + "|".join(_NUMBER_WORDS)
_YEAR_RX = r"[12]\d{3}"
_UNIT_RX = r"days?|weeks?|months?|years?"


class Unresolvable(Exception):
    pass


def _point(year, month=None, day=None):
    """A checked (year, month, day) point, as the library's TimePoint checks."""
    if month is not None and not 1 <= month <= 12:
        raise ValueError(f"month out of range: {month}")
    if day is not None:
        date(year, month, day)
    return (year, month, day)


def _day_point(d: date):
    return (d.year, d.month, d.day)


def _safe_day(d: date, delta_days: int):
    try:
        return _day_point(d + timedelta(days=delta_days))
    except OverflowError:
        return None


def _last_weekday(anchor: date, target: int):
    back = (anchor.weekday() - target) % 7
    return _day_point(anchor - timedelta(days=back or 7))


def _next_weekday(anchor: date, target: int):
    forward = (target - anchor.weekday()) % 7
    return _day_point(anchor + timedelta(days=forward or 7))


def _count(text: str) -> int:
    text = text.lower()
    return _NUMBER_WORDS[text] if text in _NUMBER_WORDS else int(text)


def _shift(anchor: date, n: int, unit: str):
    unit = unit.lower().rstrip("s")
    if unit == "day":
        return _safe_day(anchor, n)
    if unit == "week":
        return _safe_day(anchor, 7 * n)
    if unit == "month":
        index = anchor.year * 12 + (anchor.month - 1) + n
        return (index // 12, index % 12 + 1, None)
    return (anchor.year + n, None, None)


def _r_iso(m, anchor):
    try:
        return _point(int(m.group(1)), int(m.group(3)), int(m.group(4)))
    except ValueError:
        return None


def _r_month_day_year(m, anchor):
    try:
        return _point(int(m.group(3)), _MONTHS.index(m.group(1).lower()) + 1,
                      int(m.group(2)))
    except ValueError:
        return None


def _r_month_year(m, anchor):
    return (int(m.group(2)), _MONTHS.index(m.group(1).lower()) + 1, None)


def _r_count_ago(m, anchor):
    return _shift(anchor, -_count(m.group(1)), m.group(2))


def _r_in_count(m, anchor):
    return _shift(anchor, _count(m.group(1)), m.group(2))


def _r_last_next(m, anchor):
    backward = m.group(1).lower() == "last"
    word = m.group(2).lower()
    if word in _MONTHS:
        target = _MONTHS.index(word) + 1
        if backward:
            year = anchor.year - (1 if target >= anchor.month else 0)
        else:
            year = anchor.year + (1 if target <= anchor.month else 0)
        return (year, target, None)
    if word in _WEEKDAYS:
        target = _WEEKDAYS.index(word)
        return (_last_weekday(anchor, target) if backward
                else _next_weekday(anchor, target))
    return _shift(anchor, -1 if backward else 1, word)


def _r_weekday(m, anchor):
    return _last_weekday(anchor, _WEEKDAYS.index(m.group(1).lower()))


def _r_relative_day(m, anchor):
    offset = {"today": 0, "yesterday": -1, "tomorrow": 1}[m.group(1).lower()]
    return _safe_day(anchor, offset)


def _r_bare_year(m, anchor):
    return (int(m.group(1)), None, None)


_TAGGER_RULES = tuple(
    (name, re.compile(rx, re.IGNORECASE), resolver) for name, rx, resolver in (
        ("iso_date", rf"\b({_YEAR_RX})([-/])(\d{{1,2}})\2(\d{{1,2}})\b", _r_iso),
        ("month_day_year", rf"\b({_MONTH_RX})\s+(\d{{1,2}})\s*,\s*({_YEAR_RX})\b",
         _r_month_day_year),
        ("month_year", rf"\b({_MONTH_RX})\s+({_YEAR_RX})\b", _r_month_year),
        ("count_ago", rf"\b({_COUNT_RX})\s+({_UNIT_RX})\s+ago\b", _r_count_ago),
        ("in_count", rf"\bin\s+({_COUNT_RX})\s+({_UNIT_RX})\b", _r_in_count),
        ("last_next",
         rf"\b(last|next)\s+({_MONTH_RX}|{_WEEKDAY_RX}|week|month|year)\b",
         _r_last_next),
        ("weekday", rf"\b({_WEEKDAY_RX})\b", _r_weekday),
        ("relative_day", r"\b(today|yesterday|tomorrow)\b", _r_relative_day),
        ("bare_year", rf"(?<!\d)({_YEAR_RX})(?!\d)", _r_bare_year),
        ("decade", r"\b(?:the\s+)?[12]\d{2}0s\b", None),
        ("vague", r"\b(recently|nowadays|soon)\b", None),
    ))
_ABSOLUTE = {"iso_date", "month_day_year", "month_year", "bare_year"}
_PROBE_ANCHOR = date(2000, 1, 1)


def recognize(text: str):
    """[(start, end, surface, None, resolvable)], every rule over the text."""
    candidates = []
    for priority, rule in enumerate(_TAGGER_RULES):
        for m in rule[1].finditer(text):
            candidates.append((m.start(), m.end(), priority, rule, m))
    candidates.sort(key=lambda c: (-(c[1] - c[0]), c[0], c[2]))
    kept = []
    for start, end, _, rule, m in candidates:
        if any(start < e and end > s for s, e, _, _ in kept):
            continue
        kept.append((start, end, rule, m))
    kept.sort(key=lambda c: c[0])
    out = []
    for start, end, (name, _, resolver), m in kept:
        resolvable = resolver is not None
        if resolvable and name in _ABSOLUTE:
            resolvable = resolver(m, _PROBE_ANCHOR) is not None
        out.append((start, end, text[start:end], None, resolvable))
    return out


def normalize(surface: str, anchor):
    """First value in rule order for the whole surface; anchor is (y, m, d)."""
    anchor = date(*anchor)
    for _, pattern, resolver in _TAGGER_RULES:
        if resolver is None:
            continue
        m = pattern.fullmatch(surface)
        if m is None:
            continue
        point = resolver(m, anchor)
        if point is not None:
            return point
    raise Unresolvable(surface)


def annotate(text: str, anchor):
    out = []
    for start, end, surface, _, resolvable in recognize(text):
        if resolvable:
            try:
                out.append((start, end, surface, normalize(surface, anchor), True))
            except Unresolvable:
                out.append((start, end, surface, None, False))
        else:
            out.append((start, end, surface, None, False))
    return out


# The word-level tokenizer, vocabulary ranking and expression alignment as
# ``chronolm.corpus`` wrote them with one match object per token and a scan
# over every token per expression.  The faster forms must give the same
# forms, vocabularies, token ids, spans and groups, and the same errors.

_WORD_RX = re.compile(r"\w+|[^\w\s]")


class AlignmentError(Exception):
    """Stands in for the package's AlignmentError; compared by name and message."""


def word_spans(text: str, lowercase: bool = False):
    out = []
    for m in _WORD_RX.finditer(text):
        form = m.group(0)
        out.append((form.lower() if lowercase else form, m.start(), m.end()))
    return out


def vocab_tokens(texts, specials, max_size: int, min_freq: int = 1,
                 lowercase: bool = False) -> tuple:
    """Ranked vocabulary of texts (each already prefixed with its rendered
    timestamp when timestamps count): specials, then by count, then token."""
    counts: dict = {}
    for text in texts:
        for form, _, _ in word_spans(text, lowercase):
            counts[form] = counts.get(form, 0) + 1
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    return tuple(specials) + tuple(ranked[: max_size - len(specials)])


def tokenize(doc_id: str, text: str, ids: dict, unk: int, expressions,
             lowercase: bool = False, max_len=None):
    """expressions are (start, end, resolvable, normalized) tuples.

    Returns (token_ids, token_spans, groups), each group an
    (expression_index, token_start, token_end, resolvable, normalized) tuple.
    """
    full = word_spans(text, lowercase)
    spans = full
    if max_len is not None:
        if max_len < 3:
            raise ValueError("max_len must be at least 3")
        spans = full[: max_len - 2]
    token_ids = tuple(ids.get(form, unk) for form, _, _ in spans)

    groups: list = []
    for index, (e_start, e_end, resolvable, normalized) in enumerate(expressions):
        covering = [
            k for k, (_, s, e) in enumerate(full)
            if s < e_end and e > e_start
        ]
        if not covering:
            raise AlignmentError(
                f"doc {doc_id}: expression at {e_start}:{e_end} covers no token"
            )
        start, end = covering[0], covering[-1] + 1
        if len(covering) != end - start:
            raise AlignmentError(
                f"doc {doc_id}: expression at {e_start}:{e_end} is not contiguous"
            )
        if full[start][1] != e_start or full[end - 1][2] != e_end:
            raise AlignmentError(
                f"doc {doc_id}: expression at {e_start}:{e_end} "
                "does not align with token boundaries"
            )
        if end > len(spans):
            continue
        if groups and start < groups[-1][2]:
            continue
        groups.append((index, start, end, resolvable, normalized))
    return token_ids, tuple((s, e) for _, s, e in spans), tuple(groups)


# ---------------------------------------------------------------------------
# The per-document example builders as ``chronolm.objectives`` wrote them
# before an epoch's random streams were derived together: one PCG64 built
# per document and kind, an action drawn per element, the ordinary tokens
# found by testing every token, one scalar draw per random replacement, and
# the replacement candidates found by scanning the pool.  A group is an
# (expression_index, token_start, token_end, resolvable, normalized) tuple
# as ``tokenize`` above returns them; examples come back as plain tuples.

# The package's pinned special-token ids and label sentinels.
CLS, SEP, MASK_ID, N_SPECIAL, IGNORE = 2, 3, 4, 5, -100
MASK, RANDOM, KEEP = "mask", "random", "keep"


def mix(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def rng_from(*parts):
    return np.random.Generator(np.random.PCG64(mix(*parts)))


def draw_actions(rng, count):
    u = rng.random(count)
    return tuple(MASK if x < 0.8 else (RANDOM if x < 0.9 else KEEP) for x in u)


def plan_tamlm(n, groups, temporal_mask_ratio, mask_budget, rng):
    """(sampled group indexes, masked positions, actions) over n tokens."""
    n_sampled = math.ceil(temporal_mask_ratio * len(groups))
    if n_sampled:
        sampled = tuple(sorted(
            rng.choice(len(groups), size=n_sampled, replace=False).tolist()))
    else:
        sampled = ()
    masked = set()
    for g_index in sampled:
        masked.update(range(groups[g_index][1], groups[g_index][2]))
    budget = math.ceil(mask_budget * n)
    if len(masked) < budget:
        protected = {p for g in groups for p in range(g[1], g[2])}
        eligible = [p for p in range(n) if p not in protected]
        need = min(budget - len(masked), len(eligible))
        if need:
            picks = rng.choice(len(eligible), size=need, replace=False)
            masked.update(eligible[i] for i in picks.tolist())
    positions = tuple(sorted(masked))
    return sampled, positions, draw_actions(rng, len(positions))


def plan_mlm(n, mask_budget, rng):
    budget = min(math.ceil(mask_budget * n), n)
    if budget:
        picks = rng.choice(n, size=budget, replace=False)
        positions = tuple(sorted(picks.tolist()))
    else:
        positions = ()
    return (), positions, draw_actions(rng, len(positions))


def apply_plan(token_ids, plan, vocab_size, rng):
    """(input_ids, mlm_labels) of the delimited, masked sequence."""
    _, positions, actions = plan
    ids = [CLS, *token_ids, SEP]
    labels = [IGNORE] * len(ids)
    for position, action in zip(positions, actions):
        at = position + 1
        labels[at] = token_ids[position]
        if action == MASK:
            ids[at] = MASK_ID
        elif action == RANDOM:
            ids[at] = int(rng.integers(N_SPECIAL, vocab_size))
    return tuple(ids), tuple(labels)


def build_pretrain_example(doc_id, token_ids, groups, masking, dtp_label,
                           temporal_mask_ratio, mask_budget, vocab_size,
                           seed, epoch):
    """masking is "tamlm", "mlm" or None.

    Returns (doc_id, input_ids, mlm_labels, dtp_label).
    """
    rng = rng_from(seed, doc_id, epoch, "mask")
    if masking == "tamlm":
        plan = plan_tamlm(len(token_ids), groups, temporal_mask_ratio,
                          mask_budget, rng)
    elif masking == "mlm":
        plan = plan_mlm(len(token_ids), mask_budget, rng)
    else:
        plan = ((), (), ())
    ids, labels = apply_plan(token_ids, plan, vocab_size, rng)
    return doc_id, ids, labels, dtp_label


def draw_other(entries, value, rng):
    """A uniform pick among the (surface, value) entries whose value differs."""
    candidates = [e for e in entries if e[1] != value]
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


def build_tir(doc_id, prefix_ids, token_ids, groups, pool_entries, replace_prob,
              encode, seed, epoch, max_len=None):
    """pool_entries(value) lists the pool's (surface, value) entries of the
    value's granularity, in pool order; encode(surface) gives its ids.

    Returns (doc_id, input_ids, slots, forced_kept), each slot a
    (boundary_left, boundary_right, label) tuple.
    """
    rng = rng_from(seed, doc_id, epoch, "tir")
    seq = [CLS, *prefix_ids, SEP]
    slots, forced = [], []
    cursor = 0
    last_group_end = -1
    for _, start, end, _, normalized in groups:
        seq.extend(token_ids[cursor:start])
        cursor = end
        original = list(token_ids[start:end])
        adjacent = start == last_group_end
        last_group_end = end
        if normalized is None or adjacent:
            seq.extend(original)
            continue
        label = 0
        tokens = original
        if rng.random() < replace_prob:
            pick = draw_other(pool_entries(normalized), normalized, rng)
            if pick is not None:
                tokens = encode(pick[0])
                label = 1
            else:
                forced.append(len(slots))
        boundary_left = len(seq) - 1
        seq.extend(tokens)
        slots.append((boundary_left, len(seq), label))
    seq.extend(token_ids[cursor:])
    seq.append(SEP)
    if max_len is not None and len(seq) > max_len:
        seq = seq[: max_len - 1] + [SEP]
        kept_slots, kept_forced = [], []
        for i, slot in enumerate(slots):
            if slot[1] <= max_len - 1:
                if i in forced:
                    kept_forced.append(len(kept_slots))
                kept_slots.append(slot)
        slots, forced = kept_slots, kept_forced
    return doc_id, tuple(seq), tuple(slots), tuple(forced)
