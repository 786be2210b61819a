"""Differential tests: the MS-OVBA codec against the reference codec.

:mod:`tests.ole.compression_oracle` keeps the byte-at-a-time codec that the
hash-chain compressor and slice-copy decompressor replaced.  ``compress``
must emit the reference's bytes exactly (not merely bytes that round-trip),
because every container the corpus builder writes depends on them.
``decompress`` must return the reference's bytes, or raise an
``OVBACompressionError`` with the reference's message, on any input:
valid containers, generated ones, and truncated or bit-flipped copies of
real module streams.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ole.vba_project as vba_project
from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.ole import compression
from repro.ole.compression import CHUNK_SIZE, compress, decompress
from tests.ole import compression_oracle as oracle


def outcome(decoder, data: bytes) -> tuple:
    """What ``decoder`` makes of ``data``: its bytes, or its error."""
    try:
        return ("ok", decoder(data))
    except Exception as error:  # noqa: BLE001 - any difference must show
        return ("error", type(error).__name__, str(error))


def assert_codecs_agree(data: bytes) -> None:
    compressed = compress(data)
    assert compressed == oracle.compress(data)
    assert decompress(compressed) == data


def assert_decoders_agree(container: bytes) -> None:
    assert outcome(decompress, container) == outcome(oracle.decompress, container)


@functools.cache
def corpus_streams() -> tuple[bytes, ...]:
    """Every stream one fixed-seed corpus build hands to ``compress``."""
    streams: list[bytes] = []

    def recording_compress(data: bytes) -> bytes:
        streams.append(bytes(data))
        return compress(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vba_project, "compress", recording_compress)
        CorpusBuilder(paper_profile().scaled(0.02), seed=3).build()
    return tuple(streams)


class TestCompress:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.binary(max_size=3000))
    def test_arbitrary_bytes(self, data):
        assert_codecs_agree(data)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.text(max_size=2000))
    def test_utf8_text(self, text):
        assert_codecs_agree(text.encode("utf-8"))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.binary(min_size=1, max_size=40),
        st.integers(min_value=1, max_value=400),
        st.binary(max_size=8),
    )
    def test_periodic_data(self, unit, repeats, tail):
        assert_codecs_agree(unit * repeats + tail)

    @pytest.mark.parametrize(
        "size",
        [0, 1, 2, 3, 4, 17, CHUNK_SIZE - 3, CHUNK_SIZE - 1, CHUNK_SIZE,
         CHUNK_SIZE + 1, CHUNK_SIZE + 3, 2 * CHUNK_SIZE, 2 * CHUNK_SIZE + 2],
    )
    def test_sizes_around_a_chunk(self, size):
        rng = random.Random(size)
        text = bytes(rng.choice(b"Dim x As String\n\"&()") for _ in range(size))
        noise = bytes(rng.getrandbits(8) for _ in range(size))
        for data in (text, noise, b"a" * size, (b"abc" * size)[:size]):
            assert_codecs_agree(data)

    def test_every_stream_of_a_corpus_build(self):
        streams = corpus_streams()
        assert len(streams) > 100
        for data in streams:
            assert_codecs_agree(data)


def generated_chunk(rng: random.Random) -> bytes:
    """Random token groups: sparse flag bytes, copy tokens of short reach."""
    body = bytearray()
    for _ in range(rng.randint(1, 40)):
        flags = rng.getrandbits(8) & rng.getrandbits(8)
        body.append(flags)
        for bit in range(8):
            if flags >> bit & 1:
                token = rng.getrandbits(16) >> rng.randint(6, 16)
                body += token.to_bytes(2, "little")
            else:
                body.append(rng.getrandbits(8))
    return bytes(body[: rng.randint(1, 4096)])


def generated_container(rng: random.Random) -> bytes:
    """Chunks with mostly valid headers around :func:`generated_chunk`."""
    parts = [b"\x01"]
    for _ in range(rng.randint(1, 3)):
        body = generated_chunk(rng)
        size = len(body) if rng.random() < 0.9 else rng.randint(1, 4096)
        flag = 0x8000 if rng.random() < 0.9 else 0
        signature = 0b011 if rng.random() < 0.95 else rng.randrange(8)
        header = flag | (signature << 12) | (size + 2 - 3)
        parts.append(header.to_bytes(2, "little"))
        parts.append(body)
    return b"".join(parts)


class TestDecompress:
    def test_oversized_chunk_keeps_the_capped_bit_count(self):
        # One literal, then copy tokens of offset 1 and length 4098: the
        # chunk decompresses far past CHUNK_SIZE.
        body = b"\xfe" + b"a" + b"\xff\x0f" * 7
        header = 0x8000 | (0b011 << 12) | (len(body) + 2 - 3)
        container = b"\x01" + header.to_bytes(2, "little") + body
        assert len(decompress(container)) > CHUNK_SIZE
        assert_decoders_agree(container)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.binary(max_size=600))
    def test_arbitrary_containers(self, body):
        assert_decoders_agree(body)
        assert_decoders_agree(b"\x01" + body)

    def test_generated_containers(self):
        rng = random.Random(21)
        for _ in range(1500):
            assert_decoders_agree(generated_container(rng))

    def test_truncated_and_bit_flipped_streams(self):
        rng = random.Random(7)
        containers = [compress(data) for data in corpus_streams()[:30]]
        for container in containers:
            assert_decoders_agree(container)
            for _ in range(6):
                assert_decoders_agree(container[: rng.randrange(len(container))])
                flipped = bytearray(container)
                for _ in range(rng.randint(1, 3)):
                    flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
                assert_decoders_agree(bytes(flipped))


def test_bit_count_table_matches_the_spec_helper():
    for position in range(CHUNK_SIZE + 1):
        assert compression._BIT_COUNTS[position] == (
            oracle._copy_token_parameters(position)[2]
        )
