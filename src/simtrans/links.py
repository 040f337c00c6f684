"""Word-alignment links: what the aligner hands causal restructuring.

Kept apart from the EM aligner, which needs numpy, so that a command that
only reads or checks a causal corpus does not load it.
"""

from dataclasses import dataclass

from .errors import BoundsError

# EM iterations aligner.train_table runs unless told otherwise (align --iterations)
DEFAULT_ITERATIONS = 15


@dataclass
class AlignmentLinkSet:
    links: set
    source_len: int
    target_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.source_len and 0 <= j < self.target_len):
                raise BoundsError(
                    f"link ({i},{j}) outside {self.source_len}x{self.target_len}"
                )
