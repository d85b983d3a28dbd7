"""Codec tests: golden wire bytes, roundtrips, rejection totality, sequencing.

The golden fixtures are assembled here by hand with struct.pack, field by
field, independently of the encoder's own TLV helpers, and the resulting
hex is frozen under tests/data/. Any drift in the wire layout breaks both
the hand assembly comparison and the frozen file comparison.
"""

from __future__ import annotations

import hashlib
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshield import codec
from gridshield.codec import (
    CodecError,
    GooseFrame,
    InvariantViolation,
    MacAddress,
    MalformedField,
    RawFrame,
    SvFrame,
    Truncated,
    WrongEthertype,
    decode_goose,
    decode_sv,
    encode_goose,
    encode_sv,
    next_publication,
)
from tests import reference_codec

DATA_DIR = Path(__file__).parent / "data"

GOOSE_DST = MacAddress.parse("01:0C:CD:01:00:01")
PIED_MAC = MacAddress.parse("00:30:A7:00:00:01")
MU_MAC = MacAddress.parse("00:30:A7:00:00:02")
SV_DST = MacAddress.parse("01:0C:CD:04:00:01")


def parse_goose(raw: RawFrame) -> GooseFrame:
    """Decode a frame's bytes afresh, past the frame its encode kept."""
    return decode_goose(RawFrame(raw.data))


def parse_sv(raw: RawFrame) -> SvFrame:
    return decode_sv(RawFrame(raw.data))


def golden_goose_frame() -> GooseFrame:
    return GooseFrame(
        dst=GOOSE_DST,
        src=PIED_MAC,
        app_id=0x0001,
        gocb_ref="PIED/LLN0$GO$gcb1",
        time_allowed_to_live=2000,
        st_num=2,
        sq_num=0,
        test=False,
        timestamp=1_700_000_000_000_000,
        dataset_ref="PIED/LLN0$dataset1",
        all_data=(True,),
    )


def hand_assembled_goose_bytes() -> bytes:
    """Independent layout oracle: every byte written out explicitly."""
    body = b""
    body += bytes([0x80]) + struct.pack(">H", 17) + b"PIED/LLN0$GO$gcb1"
    body += bytes([0x81]) + struct.pack(">H", 4) + struct.pack(">I", 2000)
    body += bytes([0x82]) + struct.pack(">H", 4) + struct.pack(">I", 2)
    body += bytes([0x83]) + struct.pack(">H", 4) + struct.pack(">I", 0)
    body += bytes([0x84]) + struct.pack(">H", 1) + b"\x00"
    body += bytes([0x85]) + struct.pack(">H", 8) + struct.pack(">Q", 1_700_000_000_000_000)
    body += bytes([0x86]) + struct.pack(">H", 18) + b"PIED/LLN0$dataset1"
    body += bytes([0x87]) + struct.pack(">H", 1) + b"\x01"
    header = (
        bytes.fromhex("010CCD010001")
        + bytes.fromhex("0030A7000001")
        + struct.pack(">H", 0x88B8)
        + struct.pack(">H", 0x0001)
        + struct.pack(">H", len(body))
    )
    return header + body


def golden_sv_frame() -> SvFrame:
    return SvFrame(
        dst=SV_DST,
        src=MU_MAC,
        sv_id="MU01",
        smp_cnt=0,
        currents=(500, 500, 500),
        voltages=(120_000, 120_000, 120_000),
    )


def hand_assembled_sv_bytes() -> bytes:
    body = b""
    body += bytes([0x90]) + struct.pack(">H", 4) + b"MU01"
    body += bytes([0x91]) + struct.pack(">H", 2) + struct.pack(">H", 0)
    body += bytes([0x92]) + struct.pack(">H", 12) + struct.pack(">3i", 500, 500, 500)
    body += bytes([0x93]) + struct.pack(">H", 12) + struct.pack(">3i", 120_000, 120_000, 120_000)
    header = (
        bytes.fromhex("010CCD040001")
        + bytes.fromhex("0030A7000002")
        + struct.pack(">H", 0x88BA)
        + struct.pack(">H", 0x0000)
        + struct.pack(">H", len(body))
    )
    return header + body


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------


class TestGoldenFrames:
    def test_goose_encoder_matches_hand_layout(self):
        assert encode_goose(golden_goose_frame()).data == hand_assembled_goose_bytes()

    def test_goose_matches_frozen_fixture(self):
        frozen = bytes.fromhex((DATA_DIR / "goose_golden.hex").read_text().strip())
        assert encode_goose(golden_goose_frame()).data == frozen

    def test_goose_golden_decodes_back(self):
        assert decode_goose(RawFrame(hand_assembled_goose_bytes())) == golden_goose_frame()

    def test_sv_encoder_matches_hand_layout(self):
        assert encode_sv(golden_sv_frame()).data == hand_assembled_sv_bytes()

    def test_sv_matches_frozen_fixture(self):
        frozen = bytes.fromhex((DATA_DIR / "sv_golden.hex").read_text().strip())
        assert encode_sv(golden_sv_frame()).data == frozen

    def test_sv_golden_decodes_back(self):
        assert decode_sv(RawFrame(hand_assembled_sv_bytes())) == golden_sv_frame()

    def test_encoding_is_stable_across_calls(self):
        a = encode_goose(golden_goose_frame()).data
        b = encode_goose(golden_goose_frame()).data
        assert a == b


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------


class TestDecodeErrors:
    def test_thirteen_bytes_is_truncated(self):
        with pytest.raises(Truncated):
            decode_goose(RawFrame(b"\x00" * 13))

    def test_flipped_ethertype_byte(self):
        data = bytearray(hand_assembled_goose_bytes())
        data[12] ^= 0xFF
        with pytest.raises(WrongEthertype):
            decode_goose(RawFrame(bytes(data)))

    def test_sv_decoder_rejects_goose_ethertype(self):
        with pytest.raises(WrongEthertype):
            decode_sv(RawFrame(hand_assembled_goose_bytes()))

    def test_body_length_beyond_available_is_truncated(self):
        data = hand_assembled_goose_bytes()[:-4]
        with pytest.raises(Truncated):
            decode_goose(RawFrame(data))

    def test_wrong_tag_order_is_malformed(self):
        data = bytearray(hand_assembled_goose_bytes())
        data[18] = 0x81  # first body tag should be 0x80
        with pytest.raises(MalformedField):
            decode_goose(RawFrame(bytes(data)))

    def test_trailing_bytes_are_malformed(self):
        data = bytearray(hand_assembled_goose_bytes())
        data += b"\x00"
        data[16:18] = struct.pack(">H", len(data) - 18)
        # actually extend the declared body too, so the trailing byte sits
        # inside the declared body but outside the final TLV
        with pytest.raises(MalformedField):
            decode_goose(RawFrame(bytes(data)))

    def test_decoded_st_num_zero_is_invariant_violation(self):
        data = bytearray(hand_assembled_goose_bytes())
        # st_num TLV value sits after gocb_ref (3+17) and ttl (3+4) TLVs
        offset = 18 + 20 + 7 + 3
        assert data[offset - 3] == 0x82
        struct.pack_into(">I", data, offset, 0)
        with pytest.raises(InvariantViolation):
            decode_goose(RawFrame(bytes(data)))


class TestEncodeErrors:
    def test_st_num_zero_rejected(self):
        frame = golden_goose_frame()
        bad = frame._replace(st_num=0)
        with pytest.raises(InvariantViolation):
            encode_goose(bad)

    def test_zero_ttl_rejected(self):
        frame = golden_goose_frame()
        bad = frame._replace(time_allowed_to_live=0)
        with pytest.raises(InvariantViolation):
            encode_goose(bad)

    def test_empty_all_data_rejected(self):
        frame = golden_goose_frame()
        bad = frame._replace(all_data=())
        with pytest.raises(InvariantViolation):
            encode_goose(bad)

    def test_smp_cnt_beyond_modulus_rejected(self):
        frame = golden_sv_frame()
        bad = frame._replace(smp_cnt=1000)
        with pytest.raises(InvariantViolation):
            encode_sv(bad, smp_cnt_modulus=1000)
        # without a modulus the same value is fine
        assert parse_sv(encode_sv(bad)) == bad


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

macs = st.binary(min_size=6, max_size=6).map(MacAddress)
refs = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=48
)

goose_frames = st.builds(
    GooseFrame,
    dst=macs,
    src=macs,
    app_id=st.integers(0, 0xFFFF),
    gocb_ref=refs,
    time_allowed_to_live=st.integers(1, 0xFFFFFFFF),
    st_num=st.integers(1, 0xFFFFFFFF),
    sq_num=st.integers(0, 0xFFFFFFFF),
    test=st.booleans(),
    timestamp=st.integers(0, 2**64 - 1),
    dataset_ref=refs,
    all_data=st.lists(st.booleans(), min_size=1, max_size=32).map(tuple),
)

sv_frames = st.builds(
    SvFrame,
    dst=macs,
    src=macs,
    sv_id=refs,
    smp_cnt=st.integers(0, 0xFFFF),
    currents=st.tuples(*[st.integers(-(2**31), 2**31 - 1)] * 3),
    voltages=st.tuples(*[st.integers(-(2**31), 2**31 - 1)] * 3),
)


class TestRecords:
    """The frame records keep their checks, and none can be changed in place."""

    @pytest.mark.parametrize("length", [5, 7])
    def test_a_mac_address_needs_six_octets(self, length):
        with pytest.raises(InvariantViolation):
            MacAddress(bytes(length))
        with pytest.raises(InvariantViolation):
            PIED_MAC._replace(octets=bytes(length))

    @pytest.mark.parametrize("field", ["data", "digest"])
    def test_a_raw_frame_is_read_only(self, field):
        raw = RawFrame(hand_assembled_goose_bytes())
        value = getattr(raw, field)
        with pytest.raises(AttributeError):
            setattr(raw, field, value[:1])
        with pytest.raises(AttributeError):
            delattr(raw, field)
        assert getattr(raw, field) == value

    def test_raw_frames_are_equal_by_their_bytes(self):
        raw = encode_goose(golden_goose_frame())
        again = RawFrame(hand_assembled_goose_bytes())
        assert raw == again and hash(raw) == hash(again) and raw is not again
        assert raw != RawFrame(hand_assembled_sv_bytes())
        assert raw != raw.data

    @pytest.mark.parametrize("frame", [golden_goose_frame(), golden_sv_frame(), PIED_MAC],
                             ids=["goose", "sv", "mac"])
    def test_a_field_cannot_be_assigned(self, frame):
        for field in frame._fields:
            with pytest.raises(AttributeError):
                setattr(frame, field, getattr(frame, field))

    def test_replace_leaves_the_original_unchanged(self):
        frame = golden_goose_frame()
        changed = frame._replace(st_num=frame.st_num + 1, all_data=(True,))
        assert frame == golden_goose_frame()
        assert (changed.st_num, changed.all_data) == (frame.st_num + 1, (True,))
        assert changed._replace(st_num=frame.st_num, all_data=frame.all_data) == frame


class TestRoundtripProperties:
    @given(goose_frames)
    def test_goose_roundtrip_identity(self, frame):
        assert parse_goose(encode_goose(frame)) == frame

    @given(sv_frames)
    def test_sv_roundtrip_identity(self, frame):
        assert parse_sv(encode_sv(frame)) == frame

    @given(goose_frames, goose_frames)
    def test_encoding_injective(self, a, b):
        if a != b:
            assert encode_goose(a).data != encode_goose(b).data

    @settings(max_examples=300)
    @given(st.binary(max_size=256))
    def test_random_bytes_never_crash(self, blob):
        try:
            decode_goose(RawFrame(blob))
        except CodecError:
            pass
        try:
            decode_sv(RawFrame(blob))
        except CodecError:
            pass

    @settings(max_examples=200)
    @given(st.data())
    def test_bitflips_never_crash(self, data):
        blob = bytearray(hand_assembled_goose_bytes())
        idx = data.draw(st.integers(0, len(blob) - 1))
        blob[idx] ^= data.draw(st.integers(1, 255))
        try:
            decode_goose(RawFrame(bytes(blob)))
        except CodecError:
            pass


# ---------------------------------------------------------------------------
# The one-pass decoder against the reference TLV reader
# ---------------------------------------------------------------------------


def outcome(decode, blob: bytes):
    """The decoded frame, or the CodecError subclass the decode raised."""
    try:
        return decode(RawFrame(blob))
    except CodecError as exc:
        return type(exc)


def envelope(ethertype: int, body: bytes, declared_delta: int = 0) -> bytes:
    declared = max(0, min(0xFFFF, len(body) + declared_delta))
    return bytes(12) + struct.pack(">HHH", ethertype, 1, declared) + body


# Bodies of TLVs with known tags in any order, each declaring its value's
# length, a little more or less, or far past the end of the body.
tlv_bodies = st.lists(
    st.tuples(
        st.sampled_from([0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x90, 0x91, 0x92, 0x93]),
        st.binary(max_size=13),
        st.sampled_from([0, 0, 0, -1, 1, -2, 2, 300]),
    ),
    max_size=9,
).map(lambda tlvs: b"".join(
    bytes([tag]) + struct.pack(">H", max(0, len(v) + d)) + v for tag, v, d in tlvs
))


ascii_values = st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=6).map(str.encode)
text_values = st.one_of(ascii_values, ascii_values, st.binary(max_size=6))


def width_values(width):
    """Mostly the right width, zeros included; sometimes any short bytes."""
    exact = st.binary(min_size=width, max_size=width)
    return st.one_of(st.just(bytes(width)), exact, exact, st.binary(max_size=9))


GOOSE_FIELDS = (
    (0x80, text_values),
    (0x81, width_values(4)),
    (0x82, width_values(4)),
    (0x83, width_values(4)),
    (0x84, st.one_of(st.sampled_from([b"\x00", b"\x01"]), st.binary(max_size=2))),
    (0x85, width_values(8)),
    (0x86, text_values),
    (0x87, st.one_of(st.lists(st.sampled_from([b"\x00", b"\x01"]), max_size=3).map(b"".join),
                     st.binary(max_size=4))),
)
SV_FIELDS = ((0x90, text_values), (0x91, width_values(2)), (0x92, width_values(12)),
             (0x93, width_values(12)))


def ordered_body(fields):
    """Every TLV in its expected order, with values that reach the later
    field and range checks."""
    return st.tuples(*(values for _, values in fields)).map(lambda vs: b"".join(
        bytes([tag]) + struct.pack(">H", len(v)) + v for (tag, _), v in zip(fields, vs)
    ))


@st.composite
def damaged(draw, blobs):
    """A valid encoding with bits flipped, bytes cut off, or both."""
    blob = bytearray(draw(blobs))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    return bytes(blob[: draw(st.integers(0, len(blob)))])


valid_goose = goose_frames.map(lambda f: encode_goose(f).data)
valid_sv = sv_frames.map(lambda f: encode_sv(f).data)
decoder_inputs = st.one_of(
    valid_goose,
    valid_sv,
    st.binary(max_size=128),
    damaged(valid_goose),
    damaged(valid_sv),
    st.builds(envelope, st.sampled_from([0x88B8, 0x88BA]), tlv_bodies, st.integers(-2, 2)),
    st.builds(envelope, st.just(0x88B8), ordered_body(GOOSE_FIELDS)),
    st.builds(envelope, st.just(0x88BA), ordered_body(SV_FIELDS)),
)


class TestDecoderEquivalence:
    @settings(max_examples=1000)
    @given(decoder_inputs)
    def test_decoders_agree_with_the_reference(self, blob):
        for decode, reference in (
            (decode_goose, reference_codec.decode_goose),
            (decode_sv, reference_codec.decode_sv),
        ):
            assert outcome(decode, blob) == outcome(reference, blob)

    def test_golden_frames_agree_with_the_reference(self):
        goose = hand_assembled_goose_bytes()
        sv = hand_assembled_sv_bytes()
        assert outcome(decode_goose, goose) == reference_codec.decode_goose(RawFrame(goose))
        assert outcome(decode_sv, sv) == reference_codec.decode_sv(RawFrame(sv))


class TestDecodeMemo:
    def test_decoding_one_frame_twice_gives_equal_frames(self):
        raw = encode_goose(golden_goose_frame())
        first = decode_goose(raw)
        assert decode_goose(raw) == first == decode_goose(RawFrame(raw.data))
        sv = encode_sv(golden_sv_frame())
        assert decode_sv(sv) == decode_sv(sv) == golden_sv_frame()

    def test_the_memo_is_not_read_by_the_other_decoder(self):
        raw = encode_goose(golden_goose_frame())
        decode_goose(raw)
        with pytest.raises(WrongEthertype):
            decode_sv(raw)

    @pytest.mark.parametrize(
        "blob, error",
        [
            (hand_assembled_goose_bytes()[:-1], Truncated),
            (hand_assembled_goose_bytes() + b"\x00", MalformedField),
            (hand_assembled_goose_bytes()[:12], Truncated),
        ],
    )
    def test_a_malformed_frame_raises_every_time(self, blob, error):
        raw = RawFrame(blob)
        for _ in range(2):
            with pytest.raises(error):
                decode_goose(raw)


def typed(value):
    """``value`` with the type of each of its parts beside it, so that two
    frames compare equal only if they agree field by field and type by type
    (``True == 1``, but a parse never returns an int point)."""
    if isinstance(value, (tuple, list, bytearray)):
        return type(value), tuple(typed(v) for v in value)
    return type(value), value


class Count(int):
    """An int of another type."""


class Text(str):
    """A str of another type."""


# Each field's value retyped to an equal value of another type: bool flags
# as ints, ints as a subclass, strings as a subclass, tuples as lists,
# addresses as bytearrays. The encoder writes every one of them as it
# writes the original.
RETYPE = {
    int: Count,
    bool: int,
    str: Text,
    tuple: list,
    MacAddress: lambda mac: MacAddress(bytearray(mac.octets)),
}
# ... and the items of a tuple field retyped, the tuple kept
RETYPE_ITEMS = {"all_data": int, "currents": Count, "voltages": Count}


def retypings(frame):
    """One pytest param per field of ``frame``, and per tuple field's items:
    (the field, a function that retypes its value)."""
    out = [
        pytest.param(name, RETYPE[type(getattr(frame, name))], id=name)
        for name in frame._fields
    ]
    out += [
        pytest.param(name, lambda items, to=to: tuple(map(to, items)), id=f"{name}_items")
        for name, to in RETYPE_ITEMS.items()
        if hasattr(frame, name)
    ]
    return out


class TestEncodeKeepsItsFrame:
    """An encode keeps its frame on the RawFrame, so a later decode parses
    nothing; what it keeps must be exactly what a parse of the bytes gives,
    whatever the types of the fields it was given."""

    @pytest.mark.parametrize("field, retype", retypings(golden_goose_frame()))
    @settings(max_examples=40)
    @given(frame=goose_frames)
    def test_the_kept_goose_frame_is_the_parse_of_its_bytes(self, field, retype, frame):
        for f in (frame, frame._replace(**{field: retype(getattr(frame, field))})):
            raw = encode_goose(f)
            assert typed(decode_goose(raw)) == typed(parse_goose(raw))

    @pytest.mark.parametrize("field, retype", retypings(golden_sv_frame()))
    @settings(max_examples=40)
    @given(frame=sv_frames)
    def test_the_kept_sv_frame_is_the_parse_of_its_bytes(self, field, retype, frame):
        for f in (frame, frame._replace(**{field: retype(getattr(frame, field))})):
            raw = encode_sv(f)
            assert typed(decode_sv(raw)) == typed(parse_sv(raw))

    @given(goose_frames, sv_frames)
    def test_a_frame_of_the_decoded_types_is_kept(self, goose, sv):
        assert encode_goose(goose)._decoded is goose
        assert encode_sv(sv)._decoded is sv

    def test_a_change_of_a_repeated_field_is_encoded_afresh(self):
        """Along a publisher's chain, a changed points tuple, gocb_ref or
        dataset_ref is encoded as a fresh encode would encode it: the
        reference decoder reads every frame of the chain back."""
        frame = golden_goose_frame()
        chain = [frame]
        for i in range(3):
            chain.append(next_publication(chain[-1], state_changed=False, now=i))
        chain.append(next_publication(chain[-1], True, now=9, all_data=(False,)))
        chain.append(chain[-1]._replace(gocb_ref="X/LLN0$GO$gcb2"))
        chain.append(chain[-1]._replace(dataset_ref="X/LLN0$ds2"))
        for f in chain:
            assert reference_codec.decode_goose(encode_goose(f)) == f


# ---------------------------------------------------------------------------
# Publisher sequencing
# ---------------------------------------------------------------------------


class TestNextPublication:
    def test_retransmission_increments_sq(self):
        prev = golden_goose_frame()._replace(st_num=5, sq_num=3)
        out = next_publication(prev, state_changed=False, now=10)
        assert (out.st_num, out.sq_num, out.timestamp) == (5, 4, 10)

    def test_state_change_resets_sq(self):
        prev = golden_goose_frame()._replace(st_num=5, sq_num=3)
        out = next_publication(prev, state_changed=True, now=11)
        assert (out.st_num, out.sq_num, out.timestamp) == (6, 0, 11)

    def test_n_retransmissions_reach_sq_n(self):
        # loop oracle: apply the step n times, sq must land exactly on n
        frame = golden_goose_frame()._replace(sq_num=0)
        n = 137
        for i in range(n):
            frame = next_publication(frame, state_changed=False, now=i)
        assert frame.sq_num == n

    @given(st.lists(st.booleans(), max_size=60))
    def test_chain_is_lexicographically_nondecreasing(self, changes):
        frame = golden_goose_frame()
        seen = [(frame.st_num, frame.sq_num)]
        for i, changed in enumerate(changes):
            frame = next_publication(frame, changed, now=i)
            seen.append((frame.st_num, frame.sq_num))
        assert seen == sorted(seen)
        for (st0, sq0), (st1, sq1) in zip(seen, seen[1:]):
            if st1 > st0:
                assert sq1 == 0
            else:
                assert st1 == st0 and sq1 == sq0 + 1


# ---------------------------------------------------------------------------
# Bulk deterministic fuzz (mirrors the acceptance criterion counts)
# ---------------------------------------------------------------------------


def test_seeded_random_frames_roundtrip():
    rng = random.Random(0xC0DEC)
    for _ in range(1000):
        frame = GooseFrame(
            dst=MacAddress(rng.randbytes(6)),
            src=MacAddress(rng.randbytes(6)),
            app_id=rng.randrange(0x10000),
            gocb_ref="".join(chr(rng.randrange(0x20, 0x7F)) for _ in range(rng.randrange(32))),
            time_allowed_to_live=rng.randrange(1, 2**32),
            st_num=rng.randrange(1, 2**32),
            sq_num=rng.randrange(2**32),
            test=rng.random() < 0.5,
            timestamp=rng.randrange(2**64),
            dataset_ref="".join(chr(rng.randrange(0x20, 0x7F)) for _ in range(rng.randrange(32))),
            all_data=tuple(rng.random() < 0.5 for _ in range(rng.randrange(1, 16))),
        )
        assert parse_goose(encode_goose(frame)) == frame


def test_the_digest_constructor_is_hashlib_blake2b():
    """``codec`` takes ``blake2b`` from the bundled ``_blake2`` module, the
    one ``hashlib`` re-exports, without loading ``hashlib``'s OpenSSL."""
    assert codec.blake2b is hashlib.blake2b
    raw = encode_goose(golden_goose_frame())
    assert raw.digest == hashlib.blake2b(raw.data, digest_size=8).hexdigest()
