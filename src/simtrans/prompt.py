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

build_prompt returns a Prompt: the text itself, as a str, that also carries
the word lists it was built from, so a backend that works on words reads
them without parsing the text back.
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


def interpreter_system_message(language: str = DEFAULT_TARGET_LANGUAGE,
                               wait_token: str = WAIT_TOKEN) -> str:
    """Default system message instructing interpreter behavior."""
    return _INTERPRETER_MESSAGE.format(language=language, wait_token=wait_token)


class Prompt(str):
    """Prompt text that also holds its source and target word tuples."""

    def __new__(cls, text, source, target):
        self = str.__new__(cls, text)
        self.source = source
        self.target = target
        return self


def build_prompt(partial_source, partial_target, system_message=None) -> Prompt:
    """Collate the prompt; system_message=None omits the <<SYS>> block."""
    head = "<s>[INST]\n"
    if system_message is not None:
        head += f"<<SYS>>\n\n{system_message}\n<</SYS>>\n"
    source = tuple(partial_source)
    target = tuple(partial_target)
    text = f"{head}Translate this text: {' '.join(source)} [/INST] {' '.join(target)}"
    return Prompt(text, source, target)


def split_prompt(prompt: str):
    """(source words, target words) of a prompt, as tuples.

    A Prompt hands over the words it was built from. Plain text is split on
    the last "[/INST]" marker, which assumes ordinary words that do not
    themselves contain the marker.
    """
    if isinstance(prompt, Prompt):
        return prompt.source, prompt.target
    marker = " [/INST] "
    head, sep, target_text = prompt.rpartition(marker)
    if not sep:
        return (), ()
    lead = "Translate this text: "
    pos = head.rfind(lead)
    source_text = head[pos + len(lead):] if pos >= 0 else ""
    return tuple(source_text.split()), tuple(target_text.split())
