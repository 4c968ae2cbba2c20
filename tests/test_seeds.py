"""Stream derivation (seeds) and the seeded-block runner (parallel)."""

import hashlib

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from stochsubmax.parallel import BLOCK_SIZE, run_blocks
from stochsubmax.seeds import block_rng, derive_rng, stream_entropy


def draws(rng, count=4):
    return rng.random(count).tolist()


def test_block_streams_repeat_for_equal_keys():
    assert draws(block_rng(5, "gain", 3)) == draws(block_rng(5, "gain", 3))


@pytest.mark.parametrize("other", [(6, "gain", 3), (5, "gains", 3), (5, "gain", 4),
                                   (5, "gai", 3), (5 + 2**63, "gain", 3)])
def test_block_streams_differ_in_root_label_and_index(other):
    assert draws(block_rng(*other)) != draws(block_rng(5, "gain", 3))


def test_block_stream_roots_are_masked_to_64_bits():
    # stream_entropy hashes the same bytes and masks the root the same way
    for root in (7, 2**64 - 1, -1):
        masked = root & (2**64 - 1)
        assert draws(block_rng(root + 2**64, "keep-outer", 1)) == draws(
            block_rng(masked, "keep-outer", 1)
        )
        assert stream_entropy(root + 2**64, "keep-outer", 1) == stream_entropy(
            masked, "keep-outer", 1
        )


def test_block_seed_words_are_the_32_byte_hash():
    class Words(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            data = (9).to_bytes(8, "big") + b"simulate\x00" + (2).to_bytes(8, "big")
            digest = hashlib.blake2b(data, digest_size=32).digest()
            return np.frombuffer(digest, dtype, count=n_words)

    expected = np.random.Generator(np.random.PCG64(Words()))
    assert draws(block_rng(9, "simulate", 2), 8) == draws(expected, 8)


def test_interleaved_block_streams_stay_independent():
    alone = [draws(block_rng(1, label, 0), 6) for label in ("simulate", "dominance")]
    a, b = block_rng(1, "simulate", 0), block_rng(1, "dominance", 0)
    assert a.bit_generator is not b.bit_generator
    mixed = ([], [])
    for _ in range(3):
        mixed[0].extend(draws(a, 2))
        mixed[1].extend(draws(b, 2))
    assert [list(m) for m in mixed] == alone


def test_first_block_draws_are_pinned():
    # a change to the derivation moves these; derive_rng's own stream must not move
    assert [v.hex() for v in draws(block_rng(7, "simulate", 2), 3)] == [
        "0x1.1cdc96cec6874p-2", "0x1.a52165f9c33ddp-1", "0x1.471dbd9cf3e94p-1",
    ]
    assert block_rng(2**64 + 7, "simulate", 2).integers(0, 2**63, 2).tolist() == [
        2565805877060757885, 7586411971898996321,
    ]
    assert [v.hex() for v in draws(derive_rng(7, "instance"), 3)] == [
        "0x1.aee8c17c18e08p-2", "0x1.2a40ca1e1c5b5p-1", "0x1.2d3308085a59ep-1",
    ]


def test_run_blocks_splits_seeds_and_sums_in_block_order():
    calls = []

    def block(rng, start, size):
        calls.append((start, size, rng.random()))
        return size, np.array([start, 1.0]), [start]

    assert BLOCK_SIZE == 4096
    count, sums, starts = run_blocks("test", 3, 9000, block)
    assert [c[:2] for c in calls] == [(0, 4096), (4096, 4096), (8192, 808)]
    assert [c[2] for c in calls] == [block_rng(3, "test", b).random() for b in range(3)]
    assert count == 9000 and sums.tolist() == [12288.0, 3.0] and starts == [0, 4096, 8192]
    for total in (0, -1):
        with pytest.raises(ValueError, match="at least one trial"):
            run_blocks("test", 3, total, block)
