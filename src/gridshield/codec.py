"""Wire codec for simulated GOOSE and sampled-value Ethernet frames.

The substation traffic in this simulator is carried as real byte strings so
that switches, the intrusion detector and the event log all handle opaque
frames, exactly as a capture tap would. The layout is a deliberately simple
deterministic TLV body behind an Ethernet-style header (documented in
docs/FORMAT.md):

    6B dst MAC | 6B src MAC | 2B ethertype | 2B app id | 2B body length | TLVs

Each TLV is ``1B tag, 2B big-endian length, value`` and tags appear in a
fixed order, which makes the encoding injective: distinct frames always
produce distinct bytes, and every valid byte string decodes back to exactly
one frame. Sampled-value frames use the same envelope with their own
ethertype and tag set.

``next_publication`` implements standard GOOSE publisher sequencing: the
state number increments (and the sequence number resets) on a data change,
otherwise the sequence number counts retransmissions.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace

GOOSE_ETHERTYPE = 0x88B8
SV_ETHERTYPE = 0x88BA

ETH_HEADER_LEN = 14
FRAME_HEADER_LEN = 18  # ethernet header + app id + body length

_MAX_U16 = 0xFFFF
_MAX_U32 = 0xFFFFFFFF
_MAX_U64 = 0xFFFFFFFFFFFFFFFF

# GOOSE body tags, in mandatory order.
_TAG_GOCB_REF = 0x80
_TAG_TTL = 0x81
_TAG_ST_NUM = 0x82
_TAG_SQ_NUM = 0x83
_TAG_TEST = 0x84
_TAG_TIMESTAMP = 0x85
_TAG_DATASET_REF = 0x86
_TAG_ALL_DATA = 0x87

# SV body tags, in mandatory order.
_TAG_SV_ID = 0x90
_TAG_SMP_CNT = 0x91
_TAG_CURRENTS = 0x92
_TAG_VOLTAGES = 0x93


class CodecError(Exception):
    """Base class for every typed encode/decode failure."""


class WrongEthertype(CodecError):
    pass


class Truncated(CodecError):
    pass


class MalformedField(CodecError):
    pass


class InvariantViolation(CodecError):
    pass


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit hardware address; carrier of publisher/switch identity."""

    octets: bytes

    def __post_init__(self) -> None:
        if len(self.octets) != 6:
            raise InvariantViolation(f"MAC needs 6 octets, got {len(self.octets)}")

    @classmethod
    def parse(cls, text: str) -> MacAddress:
        parts = text.split(":")
        if len(parts) != 6:
            raise InvariantViolation(f"bad MAC string {text!r}")
        try:
            return cls(bytes(int(p, 16) for p in parts))
        except ValueError as exc:
            raise InvariantViolation(f"bad MAC string {text!r}") from exc

    def __str__(self) -> str:
        return ":".join(f"{b:02X}" for b in self.octets)


@dataclass(frozen=True)
class GooseFrame:
    """One decoded GOOSE publication.

    ``all_data`` is an ordered tuple of boolean points; point 0 is the
    circuit-breaker trip command.
    """

    dst: MacAddress
    src: MacAddress
    app_id: int
    gocb_ref: str
    time_allowed_to_live: int  # milliseconds
    st_num: int
    sq_num: int
    test: bool
    timestamp: int  # microseconds since epoch
    dataset_ref: str
    all_data: tuple[bool, ...]

    def validate(self) -> None:
        if not 0 <= self.app_id <= _MAX_U16:
            raise InvariantViolation(f"app_id {self.app_id} outside u16")
        if not 1 <= self.st_num <= _MAX_U32:
            raise InvariantViolation(f"st_num must be >= 1, got {self.st_num}")
        if not 0 <= self.sq_num <= _MAX_U32:
            raise InvariantViolation(f"sq_num {self.sq_num} outside u32")
        if not 1 <= self.time_allowed_to_live <= _MAX_U32:
            raise InvariantViolation(
                f"time_allowed_to_live must be positive, got {self.time_allowed_to_live}"
            )
        if not 0 <= self.timestamp <= _MAX_U64:
            raise InvariantViolation(f"timestamp {self.timestamp} outside u64")
        if not self.all_data:
            raise InvariantViolation("all_data must carry at least one point")

    @property
    def trip(self) -> bool:
        return self.all_data[0]


@dataclass(frozen=True)
class SvFrame:
    """One simplified sampled-value publication (three phases of I and V)."""

    dst: MacAddress
    src: MacAddress
    sv_id: str
    smp_cnt: int
    currents: tuple[int, int, int]  # milliamperes, signed
    voltages: tuple[int, int, int]  # millivolts, signed

    def validate(self, smp_cnt_modulus: int | None = None) -> None:
        if not 0 <= self.smp_cnt <= _MAX_U16:
            raise InvariantViolation(f"smp_cnt {self.smp_cnt} outside u16")
        if smp_cnt_modulus is not None and self.smp_cnt >= smp_cnt_modulus:
            raise InvariantViolation(
                f"smp_cnt {self.smp_cnt} must wrap below {smp_cnt_modulus}"
            )
        for label, triple in (("current", self.currents), ("voltage", self.voltages)):
            if len(triple) != 3:
                raise InvariantViolation(f"need 3 {label} phases, got {len(triple)}")
            for v in triple:
                if not -(2**31) <= v < 2**31:
                    raise InvariantViolation(f"{label} {v} outside i32")


@dataclass(frozen=True)
class RawFrame:
    """An encoded frame as it travels the simulated wire.

    ``digest`` is a stable short digest of the bytes, used to track copies
    in the log; it is computed once, when the frame is made.
    """

    data: bytes
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", hashlib.blake2b(self.data, digest_size=8).hexdigest())

    def __len__(self) -> int:
        return len(self.data)

    @property
    def ethertype(self) -> int | None:
        if len(self.data) < ETH_HEADER_LEN:
            return None
        return struct.unpack_from(">H", self.data, 12)[0]

    @property
    def src_mac(self) -> MacAddress | None:
        if len(self.data) < ETH_HEADER_LEN:
            return None
        return MacAddress(self.data[6:12])

    @property
    def app_id(self) -> int | None:
        if len(self.data) < FRAME_HEADER_LEN - 2:
            return None
        return struct.unpack_from(">H", self.data, 14)[0]


# ---------------------------------------------------------------------------
# TLV primitives
# ---------------------------------------------------------------------------


def _tlv(tag: int, value: bytes) -> bytes:
    if len(value) > _MAX_U16:
        raise InvariantViolation(f"TLV value too long ({len(value)} bytes)")
    return struct.pack(">BH", tag, len(value)) + value


def _encode_str(value: str) -> bytes:
    try:
        return value.encode("ascii")
    except UnicodeEncodeError as exc:
        raise InvariantViolation(f"string field not ascii: {value!r}") from exc


class _TlvReader:
    """Sequential reader enforcing the fixed tag order of a body."""

    def __init__(self, body: bytes):
        self.body = body
        self.offset = 0

    def expect(self, tag: int) -> bytes:
        if self.offset + 3 > len(self.body):
            raise Truncated(f"body ends inside TLV header at offset {self.offset}")
        got, length = struct.unpack_from(">BH", self.body, self.offset)
        if got != tag:
            raise MalformedField(f"expected tag 0x{tag:02X}, found 0x{got:02X}")
        self.offset += 3
        if self.offset + length > len(self.body):
            raise Truncated(f"tag 0x{tag:02X} declares {length} bytes beyond body end")
        value = self.body[self.offset : self.offset + length]
        self.offset += length
        return value

    def finish(self) -> None:
        if self.offset != len(self.body):
            raise MalformedField(f"{len(self.body) - self.offset} trailing bytes in body")


def _read_uint(value: bytes, size: int, tag: int) -> int:
    if len(value) != size:
        raise MalformedField(f"tag 0x{tag:02X} needs {size} bytes, got {len(value)}")
    return int.from_bytes(value, "big")


def _read_bool(value: bytes, tag: int) -> bool:
    if len(value) != 1 or value[0] not in (0, 1):
        raise MalformedField(f"tag 0x{tag:02X} must be a single 0x00/0x01 byte")
    return value[0] == 1


def _read_str(value: bytes, tag: int) -> str:
    try:
        return value.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedField(f"tag 0x{tag:02X} is not ascii") from exc


def _frame_header(dst: MacAddress, src: MacAddress, ethertype: int, app_id: int, body: bytes) -> bytes:
    if len(body) > _MAX_U16:
        raise InvariantViolation(f"body too long ({len(body)} bytes)")
    return dst.octets + src.octets + struct.pack(">HHH", ethertype, app_id, len(body)) + body


def _split_frame(raw: RawFrame, want_ethertype: int) -> tuple[MacAddress, MacAddress, int, bytes]:
    data = raw.data
    if len(data) < ETH_HEADER_LEN:
        raise Truncated(f"frame is {len(data)} bytes, below the 14-byte Ethernet header")
    ethertype = struct.unpack_from(">H", data, 12)[0]
    if ethertype != want_ethertype:
        raise WrongEthertype(f"ethertype 0x{ethertype:04X}, wanted 0x{want_ethertype:04X}")
    if len(data) < FRAME_HEADER_LEN:
        raise Truncated("frame ends inside the app id / body length words")
    app_id, body_len = struct.unpack_from(">HH", data, 14)
    body = data[FRAME_HEADER_LEN:]
    if len(body) < body_len:
        raise Truncated(f"body declares {body_len} bytes but only {len(body)} follow")
    if len(body) > body_len:
        raise MalformedField(f"{len(body) - body_len} bytes beyond declared body")
    return MacAddress(data[0:6]), MacAddress(data[6:12]), app_id, body


# ---------------------------------------------------------------------------
# GOOSE encode / decode
# ---------------------------------------------------------------------------


def encode_goose(frame: GooseFrame) -> RawFrame:
    frame.validate()
    body = b"".join(
        (
            _tlv(_TAG_GOCB_REF, _encode_str(frame.gocb_ref)),
            _tlv(_TAG_TTL, struct.pack(">I", frame.time_allowed_to_live)),
            _tlv(_TAG_ST_NUM, struct.pack(">I", frame.st_num)),
            _tlv(_TAG_SQ_NUM, struct.pack(">I", frame.sq_num)),
            _tlv(_TAG_TEST, b"\x01" if frame.test else b"\x00"),
            _tlv(_TAG_TIMESTAMP, struct.pack(">Q", frame.timestamp)),
            _tlv(_TAG_DATASET_REF, _encode_str(frame.dataset_ref)),
            _tlv(_TAG_ALL_DATA, bytes(1 if p else 0 for p in frame.all_data)),
        )
    )
    return RawFrame(_frame_header(frame.dst, frame.src, GOOSE_ETHERTYPE, frame.app_id, body))


def decode_goose(raw: RawFrame) -> GooseFrame:
    dst, src, app_id, body = _split_frame(raw, GOOSE_ETHERTYPE)
    r = _TlvReader(body)
    gocb_ref = _read_str(r.expect(_TAG_GOCB_REF), _TAG_GOCB_REF)
    ttl = _read_uint(r.expect(_TAG_TTL), 4, _TAG_TTL)
    st_num = _read_uint(r.expect(_TAG_ST_NUM), 4, _TAG_ST_NUM)
    sq_num = _read_uint(r.expect(_TAG_SQ_NUM), 4, _TAG_SQ_NUM)
    test = _read_bool(r.expect(_TAG_TEST), _TAG_TEST)
    timestamp = _read_uint(r.expect(_TAG_TIMESTAMP), 8, _TAG_TIMESTAMP)
    dataset_ref = _read_str(r.expect(_TAG_DATASET_REF), _TAG_DATASET_REF)
    points_raw = r.expect(_TAG_ALL_DATA)
    r.finish()
    if any(b not in (0, 1) for b in points_raw):
        raise MalformedField("all_data bytes must be 0x00/0x01")
    frame = GooseFrame(
        dst=dst,
        src=src,
        app_id=app_id,
        gocb_ref=gocb_ref,
        time_allowed_to_live=ttl,
        st_num=st_num,
        sq_num=sq_num,
        test=test,
        timestamp=timestamp,
        dataset_ref=dataset_ref,
        all_data=tuple(b == 1 for b in points_raw),
    )
    frame.validate()
    return frame


# ---------------------------------------------------------------------------
# SV encode / decode
# ---------------------------------------------------------------------------


def encode_sv(frame: SvFrame, smp_cnt_modulus: int | None = None) -> RawFrame:
    frame.validate(smp_cnt_modulus)
    body = b"".join(
        (
            _tlv(_TAG_SV_ID, _encode_str(frame.sv_id)),
            _tlv(_TAG_SMP_CNT, struct.pack(">H", frame.smp_cnt)),
            _tlv(_TAG_CURRENTS, struct.pack(">3i", *frame.currents)),
            _tlv(_TAG_VOLTAGES, struct.pack(">3i", *frame.voltages)),
        )
    )
    # app id is unused by the SV envelope; keep the header shape uniform.
    return RawFrame(_frame_header(frame.dst, frame.src, SV_ETHERTYPE, 0, body))


def decode_sv(raw: RawFrame) -> SvFrame:
    dst, src, _app_id, body = _split_frame(raw, SV_ETHERTYPE)
    r = _TlvReader(body)
    sv_id = _read_str(r.expect(_TAG_SV_ID), _TAG_SV_ID)
    smp_cnt = _read_uint(r.expect(_TAG_SMP_CNT), 2, _TAG_SMP_CNT)
    currents_raw = r.expect(_TAG_CURRENTS)
    voltages_raw = r.expect(_TAG_VOLTAGES)
    r.finish()
    if len(currents_raw) != 12 or len(voltages_raw) != 12:
        raise MalformedField("current/voltage TLVs must carry three i32 values")
    frame = SvFrame(
        dst=dst,
        src=src,
        sv_id=sv_id,
        smp_cnt=smp_cnt,
        currents=struct.unpack(">3i", currents_raw),
        voltages=struct.unpack(">3i", voltages_raw),
    )
    frame.validate()
    return frame


# ---------------------------------------------------------------------------
# Publisher sequencing
# ---------------------------------------------------------------------------


def next_publication(prev: GooseFrame, state_changed: bool, now: int) -> GooseFrame:
    """Advance a publisher one step.

    A data change bumps the state number and resets the sequence number;
    a plain retransmission increments the sequence number.
    """
    prev.validate()
    if state_changed:
        return replace(prev, st_num=prev.st_num + 1, sq_num=0, timestamp=now)
    return replace(prev, sq_num=prev.sq_num + 1, timestamp=now)
