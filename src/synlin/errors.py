"""Shared exception types with stable reason codes for the command line."""


class SynlinError(Exception):
    """Base class for package errors; `code` is the machine-parsable reason."""

    code = "internal"


class DataError(SynlinError):
    """Invalid or inconsistent input data (corpora, trees, training examples)."""

    code = "data"


class ConllError(DataError):
    """Malformed CoNLL input line."""

    code = "conll"


class TreeError(DataError):
    """Token head indices do not form a single rooted tree."""

    code = "tree"


class NonProjectiveError(TreeError):
    """Tree has crossing arcs and cannot be built with adjacent reductions."""

    code = "nonprojective"


class StateError(SynlinError):
    """Transition-system contract violation."""

    code = "state"


class IllegalActionError(StateError):
    """Action applied outside the legal set of its state."""

    code = "state"


class ConfigError(SynlinError):
    """Bad configuration or mismatched model/mode combination."""

    code = "config"


class ModelFormatError(SynlinError):
    """Corrupt or incompatible model container file."""

    code = "model"


class TrainingError(SynlinError):
    """Training diverged or reached an invalid numerical state."""

    code = "training"


class SearchSpaceError(SynlinError):
    """Search failed: a decode step produced a non-finite score, or the
    best derivation did not finish."""

    code = "search"
