"""Self-delimiting bit-string codec used by every wave protocol.

A payload is framed by doubling each payload bit and bracketing the result
with ``10`` markers, so a codeword can be recognized and decoded out of a
stream of silence-separated transmissions:

    encode("01") == "10" + "00" + "11" + "10" == "10001110"

After the start marker, every aligned pair is ``00`` or ``11`` (a payload
bit); the first aligned ``10`` pair terminates the codeword.  ``01`` can
never occur at a pair boundary of a well-formed codeword.
"""

from __future__ import annotations

import re

START_MARKER = "10"
END_MARKER = "10"
_WORD = re.compile("10(?:00|11)*10")  # exactly one codeword


class DecodeError(ValueError):
    """Malformed codeword.  ``offset`` is the first offending bit index."""

    def __init__(self, reason: str, offset: int, message_index: int | None = None):
        self.reason = reason
        self.offset = offset
        self.message_index = message_index
        where = f"message {message_index}, " if message_index is not None else ""
        super().__init__(f"{where}offset {offset}: {reason}")


def check_bits(s: str, what: str = "bit string") -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"{what} must be a str over '0'/'1', got {s!r}")
    return s


def int_to_bits(value: int) -> str:
    """Minimal-length big-endian binary; 0 encodes as the 1-bit string '0'."""
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    return format(value, "b")


def bits_to_int(bits: str) -> int:
    """Inverse of int_to_bits; the empty string reads as 0."""
    check_bits(bits)
    return int(bits, 2) if bits else 0


def fixed_width_bits(value: int, width: int) -> str:
    bits = int_to_bits(value)
    if len(bits) > width > 0 or (width == 0 and value != 0):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return bits.zfill(width) if width else ""


def encode(m: str) -> str:
    """Frame a payload: 10 + doubled bits + 10.  |encode(m)| == 2|m| + 4."""
    check_bits(m, "payload")
    return START_MARKER + "".join(b + b for b in m) + END_MARKER


def decode(w: str) -> str:
    """Decode a single well-formed codeword, rejecting trailing data."""
    check_bits(w, "codeword")
    payload, end = _parse_at(w, 0)
    if end != len(w):
        raise DecodeError("trailing data after end marker", end)
    return payload


def decode_stream(s: str) -> list[str]:
    """Decode every codeword in a stream of codewords separated by 0-runs."""
    check_bits(s, "stream")
    messages: list[str] = []
    i = 0
    while i < len(s):
        if s[i] == "0":
            i += 1
            continue
        try:
            payload, i = _parse_at(s, i)
        except DecodeError as err:
            raise DecodeError(err.reason, err.offset, message_index=len(messages)) from None
        messages.append(payload)
    return messages


def _parse_at(s: str, start: int) -> tuple[str, int]:
    """Feed ``s`` from ``start`` to a CodewordParser until its codeword ends.

    Returns (payload, index just past the end marker).
    """
    if start + 1 >= len(s):
        raise DecodeError("truncated start marker", start)
    parser = CodewordParser()
    for i in range(start, len(s)):
        try:
            payload = parser.push(1 if s[i] == "1" else 0)
        except MalformedWord as bad:
            if bad.position <= 2:
                raise DecodeError("missing 10 start marker", i) from None
            # report the invalid pair by its first bit
            raise DecodeError(bad.reason, i - 1) from None
        if payload is not None:
            return payload, i + 1
    raise DecodeError("no terminating 10 at pair boundary", len(s))


def match_word(s: str) -> str | None:
    """The payload if ``s`` is exactly one codeword, else None: the whole
    word in one match, where CodewordParser takes a push per position."""
    return s[2:-2:2] if _WORD.fullmatch(s) else None


def word_step(words: list[int], slot: int) -> int:
    """One codeword position for every open word of ``words``, a list of
    bitsets: the words at position 1, at 2, at an odd position >= 3, at an
    even position >= 4, and the first bit of each open pair.  Bit i of
    ``slot`` is word i's bit at this position.  Moves ``words`` on in place
    and returns the words that end here, as CodewordParser ends them: a 0 at
    position 1, a 1 at position 2, or a 10 or 01 pair at an even position."""
    at1, at2, odd, even, first = words
    stop = at1 & ~slot | at2 & slot | even & (first ^ slot)
    words[:] = 0, at1 & slot, at2 & ~slot | even & ~stop, odd, odd & slot
    return stop


class CodewordParser:
    """Incremental single-codeword parser fed one position at a time.

    The caller pushes bit values in position order starting from the first
    1 it locked onto.  ``push`` returns the payload once the end marker is
    seen, None while incomplete, and raises MalformedWord on a bad pair.
    ``decode`` reads words with it, and a relay replays a word it heard
    through it to name the position and the fault of a malformed word.
    """

    def __init__(self) -> None:
        self._pos = 0
        self._pending: int | None = None
        self._payload: list[str] = []

    def push(self, bit: int) -> str | None:
        self._pos += 1
        if self._pos == 1:
            if bit != 1:
                raise MalformedWord(self._pos, "codeword must start with 1")
            return None
        if self._pos == 2:
            if bit != 0:
                raise MalformedWord(self._pos, "start marker must be 10")
            return None
        if self._pending is None:
            self._pending = bit
            return None
        first, self._pending = self._pending, None
        if first == 1 and bit == 0:
            return "".join(self._payload)
        if first == bit:
            self._payload.append("1" if bit else "0")
            return None
        raise MalformedWord(self._pos, "invalid 01 pair")


class MalformedWord(Exception):
    """Raised by CodewordParser; position is 1-based within the codeword."""

    def __init__(self, position: int, reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"position {position}: {reason}")
