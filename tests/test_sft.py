import json

import pytest
from scipy import stats as scipy_stats

from simtrans.causal import CausalPair
from simtrans.errors import RangeError
from simtrans.sft import SftConfig, emit_samples, training_meta, trim_pair, write_samples
from simtrans.units import FILLER_TOKEN, WAIT_TOKEN

from conftest import GOLDEN
from oracles import sft_file


def example_pair():
    return CausalPair(source_words=["a", "b", FILLER_TOKEN], target_words=[WAIT_TOKEN, "x", "y"])


def written_records(tmp_path, corpus, cfg):
    path = tmp_path / "sft.jsonl"
    count = write_samples(corpus, cfg, path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert count == len(records)
    return records


def test_trim_keeps_trailing_wait():
    src, tgt = trim_pair(example_pair(), 1)
    assert src == ["a"]
    assert tgt == [WAIT_TOKEN]


def test_trim_drops_interior_wait_and_filler():
    src, tgt = trim_pair(example_pair(), 3)
    assert src == ["a", "b"]
    assert tgt == ["x", "y"]


def test_trim_full_identity_pair():
    pair = CausalPair(source_words=["a", "b"], target_words=["x", "y"])
    src, tgt = trim_pair(pair, 2)
    assert src == ["a", "b"] and tgt == ["x", "y"]


def test_trim_out_of_range():
    with pytest.raises(RangeError):
        trim_pair(example_pair(), 0)
    with pytest.raises(RangeError):
        trim_pair(example_pair(), 4)


def test_sample_prompt_and_completion(tmp_path):
    records = written_records(tmp_path, [example_pair()], SftConfig(seed=3, samples_per_pair=50))
    first = [r for r in records if r["meta"]["trim_len"] == 1]
    assert first
    for record in first:
        assert record["completion"] == WAIT_TOKEN
        assert record["prompt"].endswith("Translate this text: a [/INST] ")
        assert record["meta"]["loss_mask_boundary"] == len(record["prompt"])
        assert record["meta"]["source_len"] == 1
    assert all(FILLER_TOKEN not in r["prompt"] for r in records)


def test_prompt_golden_file(tmp_path):
    # one aligned position: every sample is trimmed to it
    pair = CausalPair(source_words=["a"], target_words=[WAIT_TOKEN])
    (record,) = written_records(tmp_path, [pair], SftConfig())
    golden = (GOLDEN / "sft_prompt.txt").read_text(encoding="utf-8")
    assert record["prompt"] == golden


def test_completion_wait_placement(rng):
    cfg = SftConfig(seed=5, samples_per_pair=4)
    for _, source, target in emit_samples([example_pair()] * 50, cfg):
        assert WAIT_TOKEN not in target[:-1]
        assert FILLER_TOKEN not in source + target


def test_emission_deterministic():
    cfg = SftConfig(seed=7, samples_per_pair=3)
    first = list(emit_samples([example_pair()] * 10, cfg))
    second = list(emit_samples([example_pair()] * 10, cfg))
    assert first == second
    assert len({l for l, _, _ in first}) > 1


# characters JSON escapes, or that a careless line splitter cuts at
_FUZZ_PIECES = ['"', "\\", "\x00", "\x1f", "\n", "\r", "\t", "\x7f", "\x85", "\u2028",
                "\u2029", "\U0001F600", "\U00010348", "é", "/", "a", "Zz", "[/INST]", WAIT_TOKEN]


def test_written_lines_equal_json_dumps_of_each_sample(tmp_path, rng):
    # write_samples' bytes against an SFT writer that shares no code with it
    def words(n):
        counts = rng.integers(1, 4, n)
        picks = iter(rng.integers(0, len(_FUZZ_PIECES), int(counts.sum())).tolist())
        return ["".join(_FUZZ_PIECES[next(picks)] for _ in range(c)) for c in counts.tolist()]

    languages = ["German", "Russian", "日本語", *words(3)]
    pairs = 0
    for trial in range(8):
        corpus = []
        for n in rng.integers(1, 401, 250).tolist():
            fillers = int(rng.integers(0, n))
            source = words(n - fillers) + [FILLER_TOKEN] * fillers
            target = [WAIT_TOKEN if wait else w
                      for w, wait in zip(words(n), (rng.random(n) < 0.25).tolist())]
            corpus.append(CausalPair(source, target))
        pairs += len(corpus)
        cfg = SftConfig(target_language=languages[trial % len(languages)], seed=trial,
                        samples_per_pair=trial % 4 + 1)
        path = tmp_path / "sft.jsonl"
        count = write_samples(corpus, cfg, path)
        expected = sft_file([(p.source_words, p.target_words) for p in corpus], cfg.target_language,
                            cfg.seed, cfg.samples_per_pair)
        assert count == len(corpus) * cfg.samples_per_pair
        assert path.read_bytes() == expected
    assert pairs >= 2000


def test_trim_length_uniform():
    pair = CausalPair(source_words=["a", "b", "c", "d"], target_words=["w", "x", "y", "z"])
    cfg = SftConfig(seed=11, samples_per_pair=10_000)
    freqs = {1: 0, 2: 0, 3: 0, 4: 0}
    for l, _, _ in emit_samples([pair], cfg):
        freqs[l] += 1
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
    empty = CausalPair([], [])
    with pytest.raises(RangeError, match="^pair 2 has no aligned position to trim$"):
        list(emit_samples([example_pair(), empty], SftConfig()))
