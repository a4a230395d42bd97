from __future__ import annotations

import random
import time

import pytest

from beepsim import codec


def test_encode_basic_forms():
    assert codec.encode("1") == "101110"
    assert codec.encode("") == "1010"
    assert codec.encode("01") == "10001110"
    assert codec.encode("0") == "100010"


def test_decode_inverts_encode_examples():
    assert codec.decode("101110") == "1"
    assert codec.decode("1010") == ""
    assert codec.decode("10001110") == "01"


def test_decode_rejects_bad_pair_with_offset():
    with pytest.raises(codec.DecodeError) as err:
        codec.decode("100111")
    assert err.value.offset == 2


@pytest.mark.parametrize(
    "bad,offset",
    [
        ("0110", 0),     # no start marker
        ("11", 1),       # start marker must be 10
        ("10", 2),       # no end marker at all
        ("100011", 6),   # runs out before the end marker
        ("101010", 4),   # trailing data after the end marker
    ],
)
def test_decode_malformed(bad, offset):
    with pytest.raises(codec.DecodeError) as err:
        codec.decode(bad)
    assert err.value.offset == offset


def test_decode_stream_examples():
    assert codec.decode_stream("0001011100") == ["1"]
    assert codec.decode_stream("10101010") == ["", ""]
    two = codec.encode("1") + "0" + codec.encode("01")
    assert codec.decode_stream(two) == ["1", "01"]
    assert codec.decode_stream("") == []
    assert codec.decode_stream("0000") == []


def test_decode_stream_error_carries_message_index():
    stream = codec.encode("1") + "00" + "1011"  # second codeword truncated
    with pytest.raises(codec.DecodeError) as err:
        codec.decode_stream(stream)
    assert err.value.message_index == 1


def test_roundtrip_exhaustive_short():
    for n in range(0, 11):
        for v in range(1 << n):
            m = format(v, f"0{n}b") if n else ""
            assert codec.decode(codec.encode(m)) == m


def test_length_law():
    rng = random.Random(1)
    for _ in range(200):
        m = "".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
        assert len(codec.encode(m)) == 2 * len(m) + 4


def test_marker_unambiguity_short():
    # After the start marker, the pattern 10 appears at a pair boundary
    # only as the end marker.
    for n in range(0, 11):
        for v in range(1 << n):
            m = format(v, f"0{n}b") if n else ""
            w = codec.encode(m)
            for i in range(2, len(w) - 2, 2):
                assert w[i : i + 2] in ("00", "11")
            assert w[-2:] == "10"


def test_stream_robustness_random(rng):
    for _ in range(300):
        m1 = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
        m2 = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
        gaps = [rng.randint(0, 5) for _ in range(3)]
        s = "0" * gaps[0] + codec.encode(m1) + "0" * gaps[1] + codec.encode(m2) + "0" * gaps[2]
        assert codec.decode_stream(s) == [m1, m2]


def test_numeric_conventions():
    assert codec.int_to_bits(0) == "0"
    assert codec.int_to_bits(5) == "101"
    assert codec.bits_to_int("101") == 5
    assert codec.bits_to_int("") == 0
    assert codec.fixed_width_bits(2, 4) == "0010"
    with pytest.raises(ValueError):
        codec.fixed_width_bits(9, 3)
    with pytest.raises(ValueError):
        codec.int_to_bits(-1)
    with pytest.raises(ValueError):
        codec.check_bits("10a2")


def parser_reading(s):
    """What CodewordParser makes of ``s`` pushed whole: the payload if its
    codeword ends at the last position, else None."""
    parser = codec.CodewordParser()
    for i, bit in enumerate(s, 1):
        try:
            done = parser.push(int(bit))
        except codec.MalformedWord:
            return None
        if done is not None:
            return done if i == len(s) else None
    return None


def test_whole_word_match_equals_the_parser_exhaustive():
    t0 = time.monotonic()
    words = 0
    for n in range(0, 15):
        for v in range(1 << n):
            s = format(v, f"0{n}b") if n else ""
            payload = parser_reading(s)
            assert codec.match_word(s) == payload, s
            words += payload is not None
    assert words == 2 ** 6 - 1  # one codeword for each payload of at most 5 bits
    assert time.monotonic() - t0 < 5.0


def test_codeword_parser_incremental():
    parser = codec.CodewordParser()
    out = None
    for bit in "10001110":
        out = parser.push(int(bit))
    assert out == "01"
    parser = codec.CodewordParser()
    with pytest.raises(codec.MalformedWord):
        for bit in "1001":  # 01 interior pair
            parser.push(int(bit))


def parser_end(s):
    """The position at which CodewordParser, fed ``s``, returns or raises;
    None if ``s`` ends first."""
    parser = codec.CodewordParser()
    for q, bit in enumerate(s, 1):
        try:
            if parser.push(int(bit)) is not None:
                return q
        except codec.MalformedWord:
            return q
    return None


def test_word_step_ends_every_word_where_the_parser_does():
    # All bit strings of one length as bitsets: bit v is the string
    # format(v, "0nb"), every one starts at position 1, and each step gets
    # position q of every string and must end only open strings.
    for n in range(1, 15):
        open_words = (1 << (1 << n)) - 1
        words = [open_words, 0, 0, 0, 0]
        ends = [None] * (1 << n)
        for q in range(1, n + 1):
            ones = sum(1 << v for v in range(1 << n) if v >> (n - q) & 1)
            stops = codec.word_step(words, ones)
            assert stops & ~open_words == 0
            for v in range(1 << n):
                if stops >> v & 1:
                    ends[v] = q
            open_words ^= stops
            assert words[0] | words[1] | words[2] | words[3] == open_words
        assert ends == [parser_end(format(v, f"0{n}b")) for v in range(1 << n)], n
