"""Synthetic corpora with a controllable text-to-timestamp signal.

Each document's timestamp cycles through the label space so every class is
covered.  The text embeds a marker word and a rendered date that both
encode a class; with probability `noise` that encoded class is drawn
uniformly at random instead of matching the timestamp, so noise 0 makes
timestamps fully recoverable from text and noise 1 severs the connection.
Decoy temporal expressions (an out-of-span year, a relative day) exercise
the tagger without carrying label signal.
"""

from __future__ import annotations

from . import util
from .corpus import Document
from .model.training import LabeledExample
from .objectives import LabelSpace
from .temporal import Granularity, TimePoint, days_in_month, render

_FILLERS = (
    "archive", "census", "convoy", "council", "customs", "foundry",
    "garrison", "granary", "harvest", "ledger", "market", "militia",
    "parish", "quarry", "registry", "survey", "treaty", "tribunal",
    "wharf", "workshop",
)

_TEMPLATES = (
    "the {f1} {f2} convened as the {marker} {f3} advanced in {date} . "
    "observers cited {decoy} records and the {f4} stalled {relday} .",
    "reports from the {marker} {f1} reached the {f2} in {date} . "
    "clerks compared {decoy} entries while the {f3} {f4} waited {relday} .",
    "in {date} the {f1} around the {marker} {f2} grew . "
    "a {f3} dated {decoy} surfaced at the {f4} {relday} .",
)

_RELDAYS = ("yesterday", "today", "tomorrow")


def synth_corpus(
    n_docs: int,
    space: LabelSpace,
    noise: float = 0.0,
    seed: int = 0,
) -> list[Document]:
    """Generate month-stamped documents over a month-granularity label space."""
    if space.granularity is not Granularity.MONTH:
        raise ValueError("corpus generation expects a month-granularity space")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    if n_docs < 1:
        raise ValueError("need at least one document")
    rng = util.rng_from(seed, "synth-corpus")
    docs = []
    for i in range(n_docs):
        true_class = i % space.size
        month = space.point_at(true_class)
        day = int(rng.integers(1, days_in_month(month.year, month.month) + 1))
        timestamp = TimePoint(month.year, month.month, day)

        text_class = true_class
        if noise > 0.0 and rng.random() < noise:
            text_class = int(rng.integers(space.size))
        text_month = space.point_at(text_class)

        f = [_FILLERS[j] for j in rng.integers(0, len(_FILLERS), size=4)]
        decoy_year = int(rng.integers(1800, 1900))
        template = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
        text = template.format(
            f1=f[0], f2=f[1], f3=f[2], f4=f[3],
            marker=f"m{text_class}",
            date=render(text_month),
            decoy=str(decoy_year),
            relday=_RELDAYS[int(rng.integers(len(_RELDAYS)))],
        )
        docs.append(Document(f"synth-{i:05d}", timestamp, text))
    return docs


def synth_events(
    n_events: int,
    space: LabelSpace,
    noise: float = 0.0,
    seed: int = 0,
) -> list[LabeledExample]:
    """Generate year-labeled event texts over a year-granularity label space.

    Each text contains its year's marker word and the rendered year itself.
    """
    if space.granularity is not Granularity.YEAR:
        raise ValueError("event generation expects a year-granularity space")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    if n_events < 1:
        raise ValueError("need at least one event")
    rng = util.rng_from(seed, "synth-events")
    events = []
    for i in range(n_events):
        true_class = i % space.size
        year = space.point_at(true_class)
        text_class = true_class
        if noise > 0.0 and rng.random() < noise:
            text_class = int(rng.integers(space.size))
        text_year = space.point_at(text_class)
        f = [_FILLERS[j] for j in rng.integers(0, len(_FILLERS), size=3)]
        text = (
            f"the y{text_class} {f[0]} of {render(text_year)} "
            f"reshaped {f[1]} {f[2]} policy"
        )
        events.append(LabeledExample(text=text, time=year))
    return events
