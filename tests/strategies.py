"""Shared hypothesis strategies for 64-byte block content."""

from __future__ import annotations

import struct

from hypothesis import strategies as st


#: Arbitrary 64-byte blocks: the adversarial case for every code path.
raw_blocks = st.binary(min_size=64, max_size=64)


@st.composite
def small_int_blocks(draw) -> bytes:
    """Blocks of sixteen small signed int32 values."""
    values = draw(
        st.lists(
            st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
            min_size=16,
            max_size=16,
        )
    )
    return struct.pack("<16i", *values)


@st.composite
def text_blocks(draw) -> bytes:
    """All-ASCII blocks (every byte < 0x80)."""
    return bytes(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=0x7F),
                min_size=64,
                max_size=64,
            )
        )
    )


@st.composite
def msb_blocks(draw) -> bytes:
    """Eight 64-bit words sharing bits 62..58 (shifted-MSB compressible)."""
    shared = draw(st.integers(min_value=0, max_value=31))
    words = []
    for _ in range(8):
        low = draw(st.integers(min_value=0, max_value=(1 << 58) - 1))
        sign = draw(st.integers(min_value=0, max_value=1))
        words.append(low | (shared << 58) | (sign << 63))
    return b"".join(w.to_bytes(8, "little") for w in words)


@st.composite
def rle_blocks(draw) -> bytes:
    """Random blocks with two injected 3-byte runs at even offsets."""
    base = bytearray(draw(raw_blocks))
    first = draw(st.integers(min_value=0, max_value=13)) * 2
    second = draw(st.integers(min_value=first // 2 + 2, max_value=30)) * 2
    fill = draw(st.sampled_from([0x00, 0xFF]))
    for start in (first, second):
        base[start : start + 3] = bytes([fill]) * 3
    return bytes(base)


@st.composite
def float64_blocks(draw) -> bytes:
    """Eight doubles sharing a binade band, mixed signs (the Fig. 4 case)."""
    exponent = draw(st.integers(min_value=-24, max_value=-5))
    values = []
    for _ in range(8):
        mantissa = draw(st.floats(min_value=1.0, max_value=2.0,
                                  exclude_max=True, allow_nan=False))
        sign = -1.0 if draw(st.booleans()) else 1.0
        values.append(sign * mantissa * 2.0**exponent)
    return struct.pack("<8d", *values)


@st.composite
def sparse_blocks(draw) -> bytes:
    """Mostly-zero blocks with a few live 8-byte words."""
    out = bytearray(64)
    live = draw(st.lists(st.integers(min_value=0, max_value=7),
                         min_size=1, max_size=3, unique=True))
    for slot in live:
        out[slot * 8 : slot * 8 + 8] = draw(st.binary(min_size=8, max_size=8))
    return bytes(out)


@st.composite
def chaos_specs(draw) -> str:
    """Valid ``REPRO_CHAOS`` spec strings with non-trivial fault rates.

    Probabilities are drawn in percent so their reprs stay short and
    exact; knob order is shuffled because the parser must not care.
    """
    crash = draw(st.integers(min_value=1, max_value=50)) / 100.0
    hang = draw(st.integers(min_value=0, max_value=50)) / 100.0
    seed = draw(st.integers(min_value=0, max_value=2**16))
    parts = draw(
        st.permutations([f"crash:{crash}", f"hang:{hang}", f"seed:{seed}"])
    )
    return ",".join(parts)


@st.composite
def alias_boundary_blocks(draw, config=None, at_threshold=None) -> bytes:
    """Raw blocks sitting exactly at the alias decision boundary.

    Constructs a 64-byte block whose hash-removed code words contain
    exactly ``threshold`` valid words (an alias — the decoder will
    wrongly classify it compressed) or exactly ``threshold - 1`` (the
    nearest non-alias) — the adversarial inputs for classification
    parity.  Valid slots carry ``code.encode(data) ^ mask``; invalid
    slots carry noise, bit-flipped if it lands on a codeword by chance.

    ``at_threshold``: True forces aliases, False near-misses, None draws.
    """
    from repro._bits import int_to_bytes
    from repro.core.codec import COPCodec

    codec = COPCodec(config)
    cfg = codec.config
    alias = draw(st.booleans()) if at_threshold is None else at_threshold
    valid_count = cfg.codeword_threshold - (0 if alias else 1)
    slots = draw(st.permutations(range(cfg.num_codewords)))
    valid_slots = set(slots[:valid_count])
    out = bytearray()
    for slot in range(cfg.num_codewords):
        mask = codec.masks[slot]
        if slot in valid_slots:
            data = draw(
                st.integers(0, (1 << cfg.codeword_data_bits) - 1)
            )
            word = codec.code.encode(data) ^ mask
        else:
            word = draw(st.integers(0, (1 << cfg.codeword_bits) - 1))
            if codec.code.syndrome(word ^ mask) == 0:
                # One flip off any codeword is never a codeword.
                word ^= 1 << draw(st.integers(0, cfg.codeword_bits - 1))
        out += int_to_bytes(word, cfg.codeword_bits // 8)
    return bytes(out)


#: Blocks drawn from every structured family plus pure noise.
any_blocks = st.one_of(
    raw_blocks,
    small_int_blocks(),
    text_blocks(),
    msb_blocks(),
    rle_blocks(),
    float64_blocks(),
    sparse_blocks(),
)


def pointer_alias_block(formatter, entry: int, rng) -> bytes:
    """Incompressible, alias-free data that aliases once COP-ER embeds
    ``entry``'s pointer.

    Per 128-bit segment, draw code words until one's top 9/9/8/8 bits
    equal the pointer piece XOR the hash mask, so the embedded image
    presents four valid code words; then randomise those displaced bits
    so the data itself stays raw.
    """
    codec = formatter.codec
    width = codec.config.codeword_bits
    pointer = formatter.pointer_code.encode(entry)
    value = shift = 0
    for segment, (bits, mask) in enumerate(zip(formatter.SEGMENT_BITS, codec.masks)):
        top = width - bits
        want = ((pointer >> shift) & ((1 << bits) - 1)) ^ (mask >> top)
        word = codec.code.encode(rng.getrandbits(codec.config.codeword_data_bits))
        while word >> top != want:
            word = codec.code.encode(rng.getrandbits(codec.config.codeword_data_bits))
        low = (word ^ mask) & ((1 << top) - 1)
        value |= (low | rng.getrandbits(bits) << top) << (segment * width)
        shift += bits
    block = value.to_bytes(64, "little")
    assert codec.compressor.compress(block, codec.config.capacity_bits) is None
    assert not codec.is_alias(block)
    assert codec.is_alias(formatter.embed_pointer(block, entry))
    return block
