"""Exception hierarchy shared across the toolkit."""


class SimtransError(Exception):
    """Base class for all toolkit errors."""


class EmptySentence(SimtransError):
    """Raised when a sentence is empty after whitespace trimming."""


class EmptyCorpus(SimtransError):
    """Raised when an operation requires at least one sentence pair."""


class ParseError(SimtransError):
    """A malformed input; names the file and 1-based line number when known."""

    def __init__(self, message, line_no=None, path=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_no = line_no


class BoundsError(SimtransError):
    """An alignment index falls outside its sentence."""


class RangeError(SimtransError):
    """A trim length outside [1, aligned length]."""


class SessionError(SimtransError):
    """A streaming session failed; carries the partial trace if available."""

    def __init__(self, message, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace


class WaitOverflow(SessionError):
    """The backend kept emitting wait units past the livelock guard."""


class ScriptUnderrun(SimtransError):
    """A scripted backend ran out of units before emitting end-of-sentence."""


class BackendUnavailable(SimtransError):
    """The remote backend stayed unreachable after all retries."""


class MalformedResponse(SimtransError):
    """The remote backend returned a response no unit can be assembled from."""


class ReplayMiss(SimtransError):
    """Replay mode saw a prompt absent from the recording."""


class DegenerateInput(SimtransError):
    """A metric received zero-length input it is undefined for."""


class InputMismatch(SimtransError):
    """Paired evaluation inputs do not line up."""
