import json

import pytest
from scipy import stats as scipy_stats

from simtrans.aligner import AlignmentLinkSet
from simtrans.causal import CausalPair
from simtrans.errors import RangeError
from simtrans.prompt import interpreter_system_message
from simtrans.sft import (
    SftConfig,
    emit_samples,
    make_sample,
    training_meta,
    trim_pair,
    write_samples,
)
from simtrans.units import FILLER_TOKEN, WAIT_TOKEN

from conftest import GOLDEN
from oracles import sft_line


def example_pair():
    return CausalPair(
        source_words=["a", "b", FILLER_TOKEN],
        target_words=[WAIT_TOKEN, "x", "y"],
        origin_links=AlignmentLinkSet(links={(1, 0), (0, 1)}, source_len=2, target_len=2),
    )


def test_trim_keeps_trailing_wait():
    src, tgt = trim_pair(example_pair(), 1)
    assert src == ["a"]
    assert tgt == [WAIT_TOKEN]


def test_trim_drops_interior_wait_and_filler():
    src, tgt = trim_pair(example_pair(), 3)
    assert src == ["a", "b"]
    assert tgt == ["x", "y"]


def test_trim_full_identity_pair():
    pair = CausalPair(
        source_words=["a", "b"],
        target_words=["x", "y"],
        origin_links=AlignmentLinkSet(links={(0, 0), (1, 1)}, source_len=2, target_len=2),
    )
    src, tgt = trim_pair(pair, 2)
    assert src == ["a", "b"] and tgt == ["x", "y"]


def test_trim_out_of_range():
    with pytest.raises(RangeError):
        trim_pair(example_pair(), 0)
    with pytest.raises(RangeError):
        trim_pair(example_pair(), 4)


def test_sample_prompt_and_completion():
    sample = make_sample(example_pair(), 1, interpreter_system_message())
    assert sample.completion == WAIT_TOKEN
    assert sample.prompt.endswith("Translate this text: a [/INST] ")
    assert sample.loss_mask_boundary == len(sample.prompt)
    assert FILLER_TOKEN not in sample.prompt


def test_prompt_golden_file():
    sample = make_sample(example_pair(), 1, interpreter_system_message())
    golden = (GOLDEN / "sft_prompt.txt").read_text(encoding="utf-8")
    assert sample.prompt == golden


def test_completion_wait_placement(rng):
    cfg = SftConfig(seed=5, samples_per_pair=4)
    for sample in emit_samples([example_pair()] * 50, cfg):
        words = sample.completion.split()
        assert WAIT_TOKEN not in words[:-1]
        assert FILLER_TOKEN not in words


def test_emission_deterministic():
    cfg = SftConfig(seed=7, samples_per_pair=3)
    first = [s.to_record() for s in emit_samples([example_pair()] * 10, cfg)]
    second = [s.to_record() for s in emit_samples([example_pair()] * 10, cfg)]
    assert json.dumps(first) == json.dumps(second)


# characters JSON escapes, or that a careless line splitter cuts at
_FUZZ_PIECES = ['"', "\\", "\x00", "\x1f", "\n", "\r", "\t", "\x7f", "\x85", "\u2028",
                "\u2029", "\U0001F600", "\U00010348", "é", "/", "a", "Zz", "[/INST]", WAIT_TOKEN]


def test_written_lines_equal_json_dumps_of_each_sample(tmp_path, rng):
    def word():
        picks = rng.integers(0, len(_FUZZ_PIECES), int(rng.integers(1, 4)))
        return "".join(_FUZZ_PIECES[int(k)] for k in picks)

    for trial in range(40):
        corpus = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 9))
            fillers = int(rng.integers(0, n))
            source = [word() for _ in range(n - fillers)] + [FILLER_TOKEN] * fillers
            target = [WAIT_TOKEN if rng.random() < 0.25 else word() for _ in range(n)]
            links = AlignmentLinkSet(links=set(), source_len=n - fillers,
                                     target_len=n - target.count(WAIT_TOKEN))
            corpus.append(CausalPair(source, target, links))
        cfg = SftConfig(target_language=word(), seed=trial,
                        samples_per_pair=int(rng.integers(1, 4)))
        path = tmp_path / "sft.jsonl"
        count = write_samples(corpus, cfg, path)
        expected = [sft_line(sample) for sample in emit_samples(corpus, cfg)]
        assert count == len(expected)
        # JSON escapes \n inside a string, so the file's lines end only at \n
        written = path.read_bytes().decode("utf-8").split("\n")
        assert written == "".join(expected).split("\n")


def test_trim_length_uniform():
    pair = CausalPair(
        source_words=["a", "b", "c", "d"],
        target_words=["w", "x", "y", "z"],
        origin_links=AlignmentLinkSet(links=set(), source_len=4, target_len=4),
    )
    cfg = SftConfig(seed=11, samples_per_pair=10_000)
    freqs = {1: 0, 2: 0, 3: 0, 4: 0}
    for sample in emit_samples([pair], cfg):
        freqs[sample.trim_len] += 1
    # 3 sigma around 2500 for a binomial with p = 1/4
    sigma = (10_000 * 0.25 * 0.75) ** 0.5
    for length, count in freqs.items():
        assert abs(count - 2500) <= 3 * sigma, (length, count)
    chi = scipy_stats.chisquare(list(freqs.values()))
    assert chi.pvalue > 0.01


def test_training_meta_values():
    meta = training_meta(SftConfig())
    assert meta["lora_r"] == 16
    assert meta["lora_alpha"] == 32
    assert meta["wait_token_id"] == 0
    assert meta["learning_rate"] == 0.00005
    assert meta["epochs"] == 3
    assert meta["batch_size"] == 25
    assert meta["gradient_accumulation_steps"] == 4
    assert meta["warmup_steps"] == 10
    assert meta["lr_schedule"] == "cosine_decay"


def test_samples_per_pair_validation():
    with pytest.raises(ValueError):
        SftConfig(samples_per_pair=0)


def test_a_pair_with_no_aligned_position_is_refused_by_its_place():
    empty = CausalPair([], [], AlignmentLinkSet(set(), 0, 0))
    with pytest.raises(RangeError, match="^pair 2 has no aligned position to trim$"):
        list(emit_samples([example_pair(), empty], SftConfig()))
