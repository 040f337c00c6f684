"""The instruction prompt shared by dataset emission and live inference.

The layout is fixed byte-for-byte; regression tests compare against golden
files, so any change here is a format break:

    <s>[INST]
    <<SYS>>

    {SYSTEM_MESSAGE}
    <</SYS>>
    Translate this text: {PARTIAL_SOURCE} [/INST] {PARTIAL_TARGET}

Source and target slots are space-joined word lists; with no target words
the prompt ends with "[/INST] " including the trailing space. Disabling the
system message removes the whole <<SYS>> block (the fast-inference variant).
Everything before {PARTIAL_SOURCE} depends on the system message alone;
prompt_head renders it, and SOURCE_END is what follows the source words.
build_prompt and the SFT writer both put a prompt together from these two,
the SFT writer escaping the head once per file.

build_prompt returns a Prompt: the text itself, as a str, that also carries
the word tuples it was built from, so a backend that works on words reads
prompt.source and prompt.target instead of parsing the text back.

The engine does not build a Prompt per step: it hands the backend a
StepPrompt, whose source and target are the session's own word lists and
whose text build_prompt renders only when str() asks for it. A backend
reads the same source, target and str(prompt) from either kind.
"""

from .units import WAIT_TOKEN

DEFAULT_TARGET_LANGUAGE = "German"

_INTERPRETER_MESSAGE = (
    "You are a professional conference interpreter. Given an English text "
    "you translate it into {language} as accurately and as concisely as "
    "possible, NEVER adding comments of your own. You output translation "
    "when the information available in the source is unambiguous, otherwise "
    "you output the wait token ({wait_token}), not flanked by anything else. "
    "It's important that you get this right."
)


def interpreter_system_message(language: str = DEFAULT_TARGET_LANGUAGE) -> str:
    """The system message of every SFT sample and inference prompt."""
    return _INTERPRETER_MESSAGE.format(language=language, wait_token=WAIT_TOKEN)


class Prompt(str):
    """Prompt text that also holds its source and target word tuples."""

    def __new__(cls, text, source, target):
        self = str.__new__(cls, text)
        self.source = source
        self.target = target
        return self


SOURCE_END = " [/INST] "  # between the source words and the target words


def prompt_head(system_message=None) -> str:
    """The text every prompt with this system message starts with, up to
    its source words; system_message=None omits the <<SYS>> block."""
    if system_message is None:
        return "<s>[INST]\nTranslate this text: "
    return f"<s>[INST]\n<<SYS>>\n\n{system_message}\n<</SYS>>\nTranslate this text: "


def build_prompt(partial_source, partial_target, system_message=None) -> Prompt:
    """Collate the prompt: prompt_head(system_message), then the words."""
    source = tuple(partial_source)
    target = tuple(partial_target)
    text = f"{prompt_head(system_message)}{' '.join(source)}{SOURCE_END}{' '.join(target)}"
    return Prompt(text, source, target)


class StepPrompt:
    """The prompt of one engine step, with its text rendered on first use.

    source and target are the engine's revealed and committed lists
    themselves. They hold the step's words for the duration of the
    next_unit call; a backend must not change them, and one that wants
    them after the call must copy them. str(step) is the build_prompt text
    of those words, rendered once and cached.
    """

    __slots__ = ("source", "target", "_system_message", "_text")

    def __init__(self, revealed, committed, system_message=None):
        self.source = revealed
        self.target = committed
        self._system_message = system_message
        self._text = None

    def __str__(self):
        if self._text is None:
            self._text = build_prompt(self.source, self.target, self._system_message)
        return self._text
