"""Exception types shared across the toolkit."""


class ChronoError(Exception):
    """Base class for all toolkit errors."""


class FieldError(ValueError):
    """A settings field out of range; fields names the fields the failed
    check reads, the one its message is about first."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


class UnresolvableExpression(ChronoError):
    """A temporal expression matches no normalization rule."""


class GranularityRefinementError(ChronoError):
    """An operation asked for finer granularity than a value carries."""


class MalformedRecord(ChronoError):
    """A corpus or dataset line is not a valid record."""


class InvalidTimestamp(ChronoError):
    """A document timestamp is not a valid calendar date."""


class EmptyCorpus(ChronoError):
    """A corpus stream produced no documents."""


class AlignmentError(ChronoError):
    """An expression span does not cover any token."""


class EmptyRange(ChronoError):
    """A label space declaration has end before start."""


class OutOfLabelSpace(ChronoError):
    """A time point falls outside a declared label space."""


class SequenceTooLong(ChronoError):
    """An input sequence exceeds the model's maximum length."""


class UnknownTokenId(ChronoError):
    """An input id falls outside the model's vocabulary."""


class NonFiniteGradient(ChronoError):
    """A gradient tensor contains NaN or infinity."""


class LabelOutOfRange(ChronoError):
    """A classification label falls outside the declared class count."""


class EmptyInput(ChronoError):
    """A metric was asked to aggregate over zero items."""


class VocabMismatch(ChronoError):
    """A checkpoint references a different vocabulary than the one supplied."""
