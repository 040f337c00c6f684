from simtrans.backends import DictionaryBackend
from simtrans.prompt import Prompt, build_prompt, interpreter_system_message, split_prompt

from conftest import GOLDEN


def test_prompt_text_matches_golden_bytes():
    prompt = build_prompt(["a"], [], interpreter_system_message())
    assert isinstance(prompt, Prompt)
    assert str(prompt).encode("utf-8") == (GOLDEN / "sft_prompt.txt").read_bytes()
    assert (prompt.source, prompt.target) == (("a",), ())


def test_split_prompt_reads_words_or_parses_text():
    prompt = build_prompt(["I", "like", "tea"], ["Ich", "mag"], "system")
    assert split_prompt(prompt) == (("I", "like", "tea"), ("Ich", "mag"))
    assert split_prompt(str(prompt)) == split_prompt(prompt)
    assert split_prompt("no marker here") == ((), ())


def test_dictionary_backend_same_unit_for_prompt_and_text(rng):
    vocab = [f"w{i}" for i in range(12)]
    mapping = {w: w.upper() for w in vocab[:8]}  # the rest pass through
    for _ in range(400):
        n = int(rng.integers(0, 15))
        source = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(n)]
        done = int(rng.integers(0, n + 2))
        target = [mapping.get(w, w) for w in source[:done]] + ["extra"] * (done > n)
        system = None if rng.integers(0, 2) else "system message"
        prompt = build_prompt(source, target, system)
        backend = DictionaryBackend(mapping, lookahead=int(rng.integers(0, 3)))
        for allow_wait in (True, False):
            assert (backend.next_unit(prompt, allow_wait=allow_wait)
                    == backend.next_unit(str(prompt), allow_wait=allow_wait))
