import json
import sys
from collections import namedtuple
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from simtrans.metrics import score_sessions
from simtrans.rng import make_rng

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def trace_bytes(out_dir):
    """{file name: bytes} of every entry in out_dir, each checked to be a
    .json trace file that is json.dumps of its own record, byte for byte:
    key order, number format and escapes. A stray entry, such as a left
    temporary file, fails the check."""
    traces = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}
    for name, data in traces.items():
        assert name.endswith(".json"), name
        text = data.decode("utf-8")
        assert text == json.dumps(json.loads(text), ensure_ascii=False) + "\n", name
    return traces


@pytest.fixture
def rng():
    return make_rng(20240819)


def random_words(rng, n, prefix="w"):
    return [f"{prefix}{int(rng.integers(0, 50)):02d}" for _ in range(n)]


def random_permutation_pair(rng, max_len=20):
    """Source/target of equal length linked by a random permutation."""
    n = int(rng.integers(1, max_len + 1))
    src = [f"s{t}" for t in range(n)]
    tgt = [f"t{t}" for t in range(n)]
    perm = rng.permutation(n)
    links = {(int(perm[j]), j) for j in range(n)}
    return src, tgt, links


LagRow = namedtuple("LagRow", "al laal ap dal truncated")


def score_delays(seqs):
    """score_sessions of delay sequences alone: every hypothesis and
    reference is the one token "a"."""
    return score_sessions(seqs, [["a"]] * len(seqs), [["a"]], [0] * len(seqs))


def lag_rows(seqs):
    """Each sequence's latency row of score_sessions, as Python values."""
    s = score_delays(seqs)
    return [LagRow(*row) for row in zip(s.al.tolist(), s.laal.tolist(), s.ap.tolist(),
                                        s.dal.tolist(), s.truncated.tolist())]


def lag_row(d):
    return lag_rows([d])[0]
