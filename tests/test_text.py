import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setn.autodiff import Adam, Tensor, backward, no_grad
from setn.errors import ContractError, DataError
from setn.text import (CLS_ID, UNK_ID, MAX_TOKENS, TextEncoder, Vocab, pool,
                       tokenize)

from gradcheck import grad_check_params
from op_by_op import mul, sum_all


@pytest.fixture
def vocab():
    # ids: a=3, b=4, steel=5, c=6, maker=7
    return Vocab(["a", "b", "steel", "c", "maker"])


def test_tokenize_known_words(vocab):
    assert tokenize("Steel maker", vocab) == [2, 5, 7]


def test_tokenize_unknown_word_falls_back_to_unk(vocab):
    assert tokenize("blorp", vocab) == [CLS_ID, UNK_ID]


def test_tokenize_truncates_to_512(vocab):
    text = " ".join(["steel"] * 600)
    ids = tokenize(text, vocab)
    assert len(ids) == MAX_TOKENS
    assert ids[0] == CLS_ID


def test_tokenize_empty_text_is_cls_only(vocab):
    assert tokenize("   ", vocab) == [CLS_ID]


def test_tokenize_rejects_empty_vocab():
    with pytest.raises(DataError):
        tokenize("x", Vocab([]))


_WORDS = ["a", "B", "steel", "Maker", "blorp", "ß", "İ"]
_TEXTS = (st.lists(st.sampled_from(_WORDS + ["", " ", "\t", "\n", "\u00a0"]), max_size=12).map(" ".join)
          | st.text(max_size=20))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(texts=st.lists(_TEXTS, min_size=1, max_size=4), shortest_first=st.booleans())
def test_memoized_tokenize_equals_a_fresh_vocabulary_at_every_length(texts, shortest_first):
    """The memo keeps a text's whole sequence, whatever ``max_tokens`` the
    first call asked for, and each call returns a list of its own."""
    tokens = ["a", "b", "steel", "c", "maker", "ß", "i̇"]
    vocab = Vocab(tokens)
    for text in texts:
        full = len(text.split()) + 1
        lengths = range(1, full + 2) if shortest_first else range(full + 1, 0, -1)
        for max_tokens in lengths:
            expected = tokenize(text, Vocab(tokens), max_tokens)
            assert len(expected) == min(max_tokens, full)
            got = tokenize(text, vocab, max_tokens)
            assert got == expected
            got.append(CLS_ID)
            got[0] = UNK_ID
            again = tokenize(text, vocab, max_tokens)
            assert again == expected and again is not got


def test_vocab_rejects_duplicates():
    with pytest.raises(DataError):
        Vocab(["x", "x"])


def test_vocab_file_duplicate_names_the_path_and_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n\na\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        Vocab.from_file(path)
    assert str(exc.value) == f"{path}:4: duplicate vocabulary token 'a'"


@pytest.mark.parametrize("token", ["", "a b", "a\nb", " a", "a\u2028b", 1, None])
def test_vocab_refuses_a_token_that_its_file_cannot_hold(token):
    # "" was written as an empty line that from_file skips, so "y" reloaded
    # with the id of the token after it; "a\nb" reloaded as two tokens
    with pytest.raises(DataError, match=rf"^vocabulary token {re.escape(repr(token))} must be "
                                        "a non-empty string without whitespace$"):
        Vocab(["x", token, "y"])


@pytest.mark.parametrize("line", ["a b", " a", "a\tb", "a\u2028b"])
def test_a_vocab_file_token_holding_whitespace_names_the_path_and_line(tmp_path, line):
    path = tmp_path / "vocab.txt"
    path.write_text(f"x\n\n{line}\ny\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        Vocab.from_file(path)
    assert str(exc.value) == (f"{path}:3: vocabulary token {line!r} must be a non-empty "
                              "string without whitespace")


def test_vocab_file_roundtrip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    vocab.to_file(path)
    again = Vocab.from_file(path)
    assert again.tokens == vocab.tokens
    assert again.id_of("maker") == 7


def test_vocab_build_orders_by_frequency_then_alphabet():
    v = Vocab.build(["b b a", "a b c"])
    assert v.tokens == ["b", "a", "c"]
    assert v.id_of("b") == 3


# ---------------------------------------------------------------------------
# encoder


def _encoder(depth, dim=6, vocab_size=10, seed=0, max_len=32):
    return TextEncoder(vocab_size, dim, depth, np.random.default_rng(seed), max_len=max_len)


def test_depth_zero_encode_returns_raw_embedding_rows():
    enc = _encoder(depth=0)
    ids = [2, 5, 7]
    out = enc.encode([ids])
    assert np.array_equal(out.data[0], enc.token_emb.data[ids])


def test_encode_output_shape_for_any_depth():
    for depth in (0, 1, 2):
        enc = _encoder(depth)
        out = enc.encode([[2, 3, 4, 5]])
        assert out.data.shape == (1, 4, 6)


def test_encode_rejects_bad_ids_and_lengths():
    enc = _encoder(1, max_len=4)
    with pytest.raises(DataError):
        enc.encode([[]])
    with pytest.raises(DataError):
        enc.encode([[2, 99]])
    with pytest.raises(DataError):
        enc.encode([[2, 3, 4, 5, 6]])
    with pytest.raises(DataError):
        enc.encode([[2, 3], [2, 3, 4]])
    with pytest.raises(DataError):
        enc.encode([[2, 3], [2, 99]])
    with pytest.raises(DataError):
        enc.encode([[], []])


def test_encode_names_the_first_out_of_range_id_in_row_order():
    enc = _encoder(1, vocab_size=10)
    with pytest.raises(DataError, match=r"^token id 12 outside vocabulary of size 10$"):
        enc.encode([[2, 3, 12], [-1, 3, 11]])
    with pytest.raises(DataError, match=r"^token id -1 outside vocabulary of size 10$"):
        enc.encode([[2, 3, 4], [-1, 3, 11]])
    with pytest.raises(DataError, match=rf"^token id {2**70} outside vocabulary of size 10$"):
        enc.encode([[2, 2**70]])


@pytest.mark.parametrize("ids, bad", [
    ([[2.7, 3.2]], "2.7"), ([[2, 3.0]], "3.0"), ([[True, 3]], "True"),
    ([[2, 3], [4, np.False_]], "np.False_"), ([[2, np.float64(4)]], "np.float64(4.0)"),
])
def test_encode_rejects_a_float_or_bool_token_id_naming_it(ids, bad):
    enc = _encoder(1, vocab_size=10)
    with pytest.raises(DataError, match=rf"^token id must be an integer in \[0, 9\], "
                                        rf"got {re.escape(bad)}$"):
        enc.encode(ids)
    assert enc.encode([[2, np.int32(3)]]).data.shape == (1, 2, 6)


def test_encode_is_deterministic():
    enc = _encoder(2)
    a = enc.encode([[2, 4, 6]]).data
    b = enc.encode([[2, 4, 6]]).data
    assert np.array_equal(a, b)


def test_encode_batch_equals_each_sequence():
    enc = _encoder(depth=2)
    seqs = [[2, 5, 7], [3, 3, 9], [2, 4, 6]]
    batch = enc.encode(seqs).data
    assert batch.shape == (3, 3, 6)
    for row, seq in zip(batch, seqs):
        assert np.array_equal(row, enc.encode([seq]).data[0])


def test_encode_keeps_the_prefix_states_it_computes_while_keeping_is_open():
    enc = _encoder(depth=2)
    enc.set_trainable("last")
    seqs = [[2, 5, 7], [3, 3, 9], [2, 5, 7]]
    plain = [enc.encode([seq]).data[0] for seq in seqs]
    with no_grad():
        enc.encode(seqs)
    assert 1 not in enc._cache  # keeping never opened: nothing to read or keep there
    with enc.keeping_prefixes():
        enc.encode([seqs[1]])  # a recorded pass keeps the state it computes
    assert set(enc._cache[1][1]) == {tuple(seqs[1])}
    enc.encode(seqs)  # closed: a pass reads the level and keeps nothing new
    assert set(enc._cache[1][1]) == {tuple(seqs[1])}
    with enc.keeping_prefixes(), no_grad():
        enc.encode(seqs)  # and so does an unrecorded one
    assert set(enc._cache[1][1]) == {tuple(seq) for seq in seqs}

    def fail(*_):
        raise AssertionError("a kept prefix was computed again")

    enc._prefix = fail
    batch = enc.encode(seqs).data
    with no_grad():
        again = enc.encode([seqs[0]]).data[0]
    for row, expected in zip(batch, plain):
        assert np.array_equal(row, expected)
    assert np.array_equal(again, plain[0])


def test_block_gradients_on_a_batch_match_finite_differences():
    block = _encoder(depth=1, dim=4).blocks[0]
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4)), requires_grad=True)
    weights = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4)))
    # the key bias shifts each row of scores by a constant, which softmax
    # ignores: its true gradient is zero and only finite-difference noise is left
    params = [x] + [p for name, p in block.named_params() if name != "attn_k_b"]
    assert grad_check_params(lambda: sum_all(mul(block.forward(x), weights)), params) < 1e-6


def test_frozen_block_gets_no_gradient():
    enc = _encoder(depth=2)
    enc.blocks[0].set_trainable(False)
    enc.blocks[1].set_trainable(True)
    out = enc.encode([[2, 5, 7]])
    backward(sum_all(out))
    assert all(p.grad is None for _, p in enc.blocks[0].named_params())
    assert any(p.grad is not None for _, p in enc.blocks[1].named_params())


def test_set_trainable_policies():
    enc = _encoder(depth=2)
    def block_flags():
        flags = [{p.requires_grad for _, p in block.named_params()} for block in enc.blocks]
        assert all(len(f) == 1 for f in flags)  # a block trains whole or not at all
        return [f.pop() for f in flags]

    enc.set_trainable("none")
    assert block_flags() == [False, False]
    assert not enc.token_emb.requires_grad

    enc.set_trainable("last")
    assert block_flags() == [False, True]
    assert not enc.token_emb.requires_grad

    enc.set_trainable("all")
    assert block_flags() == [True, True]
    assert enc.token_emb.requires_grad

    with pytest.raises(ValueError, match="most"):
        enc.set_trainable("most")


def test_set_trainable_last_requires_a_block():
    enc = _encoder(depth=0)
    with pytest.raises(ValueError):
        enc.set_trainable("last")


def test_policy_all_training_step_changes_embedding_table():
    enc = _encoder(depth=1)
    enc.set_trainable("all")
    before = enc.token_emb.data.copy()
    params = [p for _, p in enc.named_params() if p.requires_grad]
    backward(sum_all(enc.encode([[2, 5, 7]])))
    Adam(params, lr=0.01).step()
    assert not np.array_equal(before, enc.token_emb.data)


def test_frozen_parameters_identical_after_training_steps():
    enc = _encoder(depth=2)
    enc.set_trainable("last")
    frozen_before = {name: p.data.copy() for name, p in enc.named_params()
                     if not p.requires_grad}
    params = [p for _, p in enc.named_params() if p.requires_grad]
    opt = Adam(params, lr=0.05)
    for _ in range(3):
        backward(sum_all(enc.encode([[2, 5, 7]])))
        opt.step()
        opt.zero_grad()
    for name, p in enc.named_params():
        if name in frozen_before:
            assert np.array_equal(p.data, frozen_before[name]), name


# ---------------------------------------------------------------------------
# pooling


def test_pool_examples():
    from setn.autodiff import Tensor
    h = Tensor([[1.0, 3.0], [3.0, 5.0]])
    assert np.array_equal(pool(h, "mean").data, [2.0, 4.0])
    assert np.array_equal(pool(h, "max").data, [3.0, 5.0])
    assert np.array_equal(pool(h, "cls").data, [1.0, 3.0])


def test_pool_mean_permutation_invariant_cls_not():
    from setn.autodiff import Tensor
    h = Tensor([[1.0, 3.0], [3.0, 5.0]])
    swapped = Tensor([[3.0, 5.0], [1.0, 3.0]])
    assert np.array_equal(pool(h, "mean").data, pool(swapped, "mean").data)
    assert not np.array_equal(pool(h, "cls").data, pool(swapped, "cls").data)


def test_pool_over_a_batch_pools_each_sequence():
    h = np.random.default_rng(1).normal(size=(3, 4, 2))
    for strategy in ("mean", "max", "cls"):
        batched = pool(Tensor(h), strategy).data
        assert np.array_equal(batched, np.stack([pool(Tensor(x), strategy).data for x in h]))


def test_pool_rejects_empty_and_unknown():
    from setn.autodiff import Tensor
    with pytest.raises(ContractError):
        pool(Tensor(np.zeros((0, 3))), "mean")
    with pytest.raises(DataError):
        pool(Tensor(np.ones((2, 2))), "median")
