from simtrans.prompt import Prompt, build_prompt, interpreter_system_message

from conftest import GOLDEN
from oracles import prompt_words


def test_prompt_text_matches_golden_bytes():
    prompt = build_prompt(["a"], [], interpreter_system_message())
    assert isinstance(prompt, Prompt)
    assert str(prompt).encode("utf-8") == (GOLDEN / "sft_prompt.txt").read_bytes()
    assert (prompt.source, prompt.target) == (("a",), ())


def test_prompt_words_match_its_text(rng):
    vocab = [f"w{i}" for i in range(12)] + ["Übung", "l'été", "-", "?"]
    for _ in range(400):
        source = [vocab[int(rng.integers(0, len(vocab)))]
                  for _ in range(int(rng.integers(0, 15)))]
        target = [vocab[int(rng.integers(0, len(vocab)))]
                  for _ in range(int(rng.integers(0, 15)))]
        system = None if rng.integers(0, 2) else interpreter_system_message()
        p = build_prompt(source, target, system)
        assert (p.source, p.target) == prompt_words(str(p))
