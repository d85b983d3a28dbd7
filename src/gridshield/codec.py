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

Decoding is a pure function of a frame's immutable bytes, and every
``RawFrame`` keeps the frame it decodes to. An encode keeps the frame it
was given, when its fields already have the types a decode gives them, so
a frame the simulator encoded is never parsed. Only bytes from elsewhere
(a hand-built capture, a corrupted frame) are read, in one pass, and the
copies of such a frame that reach several subscribers share that parse. A
malformed frame keeps nothing and raises the same error on every decode.

``next_publication`` implements standard GOOSE publisher sequencing: the
state number increments (and the sequence number resets) on a data change,
otherwise the sequence number counts retransmissions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

try:
    # hashlib.blake2b itself; importing hashlib would also map OpenSSL
    from _blake2 import blake2b
except ImportError:  # an interpreter built without the bundled module
    from hashlib import blake2b

GOOSE_ETHERTYPE = 0x88B8
SV_ETHERTYPE = 0x88BA

ETH_HEADER_LEN = 14
FRAME_HEADER_LEN = 18  # ethernet header + app id + body length

MAX_U16 = 0xFFFF
MAX_U32 = 0xFFFFFFFF
MAX_U64 = 0xFFFFFFFFFFFFFFFF

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
        if not 0 <= self.app_id <= MAX_U16:
            raise InvariantViolation(f"app_id {self.app_id} outside u16")
        if not 1 <= self.st_num <= MAX_U32:
            raise InvariantViolation(f"st_num must be >= 1, got {self.st_num}")
        if not 0 <= self.sq_num <= MAX_U32:
            raise InvariantViolation(f"sq_num {self.sq_num} outside u32")
        if not 1 <= self.time_allowed_to_live <= MAX_U32:
            raise InvariantViolation(
                f"time_allowed_to_live must be positive, got {self.time_allowed_to_live}"
            )
        if not 0 <= self.timestamp <= MAX_U64:
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
        if not 0 <= self.smp_cnt <= MAX_U16:
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
    in the log; it is computed once, when the frame is made. The bytes never
    change, so the RawFrame keeps the frame they decode to: ``encode_goose``
    and ``encode_sv`` store the frame they encoded, and ``decode_goose`` or
    ``decode_sv`` the frame it parsed from bytes made elsewhere. Every later
    decode (each copy the network delivers) returns that same frame, once
    the ethertype is checked.
    """

    data: bytes
    digest: str = field(init=False, repr=False, compare=False)
    _decoded = None  # not a field: set once by a successful decode

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", blake2b(self.data, digest_size=8).hexdigest())

    def __len__(self) -> int:
        return len(self.data)

    @property
    def ethertype(self) -> int | None:
        data = self.data
        if len(data) < ETH_HEADER_LEN:
            return None
        return data[12] << 8 | data[13]


# ---------------------------------------------------------------------------
# Wire layout
# ---------------------------------------------------------------------------

_HEADER = struct.Struct(">6s6sHHH")  # dst, src, ethertype, app id, body length
_TLV_HEAD = struct.Struct(">BH")
# The runs of fixed-width TLVs, packed in one go: GOOSE ttl to timestamp,
# SV sample count to voltages.
_GOOSE_FIXED = struct.Struct(">BHI BHI BHI BHB BHQ")
_SV_FIXED = struct.Struct(">BHH BH3i BH3i")
_I32X3 = struct.Struct(">3i")

# How each TLV value of a body is read: a positive kind is the width of a
# big-endian unsigned integer, _STR is ASCII text and _BOOL one 0x00/0x01
# byte, all checked as they are read; _BYTES are checked by the decoder once
# the whole body has been read, as the layout's order of checks requires.
_STR, _BOOL, _BYTES = 0, -1, -2
_GOOSE_BODY = (
    (_TAG_GOCB_REF, _STR),
    (_TAG_TTL, 4),
    (_TAG_ST_NUM, 4),
    (_TAG_SQ_NUM, 4),
    (_TAG_TEST, _BOOL),
    (_TAG_TIMESTAMP, 8),
    (_TAG_DATASET_REF, _STR),
    (_TAG_ALL_DATA, _BYTES),
)
_SV_BODY = ((_TAG_SV_ID, _STR), (_TAG_SMP_CNT, 2), (_TAG_CURRENTS, _BYTES), (_TAG_VOLTAGES, _BYTES))


def _tlv(tag: int, value: bytes) -> bytes:
    if len(value) > MAX_U16:
        raise InvariantViolation(f"TLV value too long ({len(value)} bytes)")
    return _TLV_HEAD.pack(tag, len(value)) + value


def _encode_str(value: str) -> bytes:
    try:
        return value.encode("ascii")
    except UnicodeEncodeError as exc:
        raise InvariantViolation(f"string field not ascii: {value!r}") from exc


def _frame(dst: MacAddress, src: MacAddress, ethertype: int, app_id: int, body: bytes) -> RawFrame:
    if len(body) > MAX_U16:
        raise InvariantViolation(f"body too long ({len(body)} bytes)")
    return RawFrame(_HEADER.pack(dst.octets, src.octets, ethertype, app_id, len(body)) + body)


def _checked_ethertype(raw: RawFrame, want: int) -> bytes:
    """The frame's bytes, once they carry the wanted ethertype."""
    data = raw.data
    if len(data) < ETH_HEADER_LEN:
        raise Truncated(f"frame is {len(data)} bytes, below the 14-byte Ethernet header")
    ethertype = data[12] << 8 | data[13]
    if ethertype != want:
        raise WrongEthertype(f"ethertype 0x{ethertype:04X}, wanted 0x{want:04X}")
    return data


def _read_body(data: bytes, layout: tuple[tuple[int, int], ...]) -> list:
    """Read the body length word and then every TLV of ``layout`` in one
    pass, checking each value as it is read; the body must end with the
    last TLV. Offsets in messages count from the start of the body."""
    end = len(data)
    if end < FRAME_HEADER_LEN:
        raise Truncated("frame ends inside the app id / body length words")
    declared = data[16] << 8 | data[17]
    present = end - FRAME_HEADER_LEN
    if present < declared:
        raise Truncated(f"body declares {declared} bytes but only {present} follow")
    if present > declared:
        raise MalformedField(f"{present - declared} bytes beyond declared body")
    values = []
    off = FRAME_HEADER_LEN
    for tag, kind in layout:
        if off + 3 > end:
            raise Truncated(f"body ends inside TLV header at offset {off - FRAME_HEADER_LEN}")
        if data[off] != tag:
            raise MalformedField(f"expected tag 0x{tag:02X}, found 0x{data[off]:02X}")
        start = off + 3
        off = start + (data[off + 1] << 8 | data[off + 2])
        if off > end:
            raise Truncated(f"tag 0x{tag:02X} declares {off - start} bytes beyond body end")
        value = data[start:off]
        if kind > 0:
            if off - start != kind:
                raise MalformedField(f"tag 0x{tag:02X} needs {kind} bytes, got {off - start}")
            value = int.from_bytes(value, "big")
        elif kind == _STR:
            try:
                value = value.decode("ascii")
            except UnicodeDecodeError as exc:
                raise MalformedField(f"tag 0x{tag:02X} is not ascii") from exc
        elif kind == _BOOL:
            if value != b"\x00" and value != b"\x01":
                raise MalformedField(f"tag 0x{tag:02X} must be a single 0x00/0x01 byte")
            value = value == b"\x01"
        values.append(value)
    if off != end:
        raise MalformedField(f"{end - off} trailing bytes in body")
    return values


# ---------------------------------------------------------------------------
# GOOSE encode / decode
# ---------------------------------------------------------------------------


def encode_goose(frame: GooseFrame) -> RawFrame:
    frame.validate()
    points = frame.all_data
    body = (
        _tlv(_TAG_GOCB_REF, _encode_str(frame.gocb_ref))
        + _GOOSE_FIXED.pack(
            _TAG_TTL, 4, frame.time_allowed_to_live,
            _TAG_ST_NUM, 4, frame.st_num,
            _TAG_SQ_NUM, 4, frame.sq_num,
            _TAG_TEST, 1, 1 if frame.test else 0,
            _TAG_TIMESTAMP, 8, frame.timestamp,
        )
        + _tlv(_TAG_DATASET_REF, _encode_str(frame.dataset_ref))
        + _tlv(_TAG_ALL_DATA, bytes(map(bool, points)))
    )
    raw = _frame(frame.dst, frame.src, GOOSE_ETHERTYPE, frame.app_id, body)
    # Keep the frame as the bytes' decode only if it is that decode type by
    # type: an int point or test flag compares equal to its bool, yet is not
    # what a parse returns.
    if (
        type(frame) is GooseFrame
        and type(frame.gocb_ref) is str is type(frame.dataset_ref)
        and type(points) is tuple
        and all(type(p) is bool for p in points)
        and type(frame.test) is bool
        and type(frame.app_id) is type(frame.time_allowed_to_live) is type(frame.st_num)
        is type(frame.sq_num) is type(frame.timestamp) is int
        and type(frame.dst.octets) is type(frame.src.octets) is bytes
    ):
        object.__setattr__(raw, "_decoded", frame)
    return raw


def decode_goose(raw: RawFrame) -> GooseFrame:
    data = _checked_ethertype(raw, GOOSE_ETHERTYPE)
    # only this decoder gets past the ethertype, so the memo is its frame
    if raw._decoded is not None:
        return raw._decoded
    gocb_ref, ttl, st_num, sq_num, test, timestamp, dataset_ref, points = _read_body(
        data, _GOOSE_BODY
    )
    if any(b > 1 for b in points):
        raise MalformedField("all_data bytes must be 0x00/0x01")
    frame = GooseFrame(
        dst=MacAddress(data[0:6]),
        src=MacAddress(data[6:12]),
        app_id=data[14] << 8 | data[15],
        gocb_ref=gocb_ref,
        time_allowed_to_live=ttl,
        st_num=st_num,
        sq_num=sq_num,
        test=test,
        timestamp=timestamp,
        dataset_ref=dataset_ref,
        all_data=tuple(b == 1 for b in points),
    )
    frame.validate()
    object.__setattr__(raw, "_decoded", frame)
    return frame


# ---------------------------------------------------------------------------
# SV encode / decode
# ---------------------------------------------------------------------------


def encode_sv(frame: SvFrame, smp_cnt_modulus: int | None = None) -> RawFrame:
    frame.validate(smp_cnt_modulus)
    body = _tlv(_TAG_SV_ID, _encode_str(frame.sv_id)) + _SV_FIXED.pack(
        _TAG_SMP_CNT, 2, frame.smp_cnt,
        _TAG_CURRENTS, 12, *frame.currents,
        _TAG_VOLTAGES, 12, *frame.voltages,
    )
    # app id is unused by the SV envelope; keep the header shape uniform.
    raw = _frame(frame.dst, frame.src, SV_ETHERTYPE, 0, body)
    # as in encode_goose: keep the frame only if it is its decode type by type
    if (
        type(frame) is SvFrame
        and type(frame.sv_id) is str
        and type(frame.smp_cnt) is int
        and type(frame.currents) is tuple is type(frame.voltages)
        and all(type(v) is int for v in frame.currents + frame.voltages)
        and type(frame.dst.octets) is type(frame.src.octets) is bytes
    ):
        object.__setattr__(raw, "_decoded", frame)
    return raw


def decode_sv(raw: RawFrame) -> SvFrame:
    data = _checked_ethertype(raw, SV_ETHERTYPE)
    if raw._decoded is not None:
        return raw._decoded
    sv_id, smp_cnt, currents, voltages = _read_body(data, _SV_BODY)
    if len(currents) != 12 or len(voltages) != 12:
        raise MalformedField("current/voltage TLVs must carry three i32 values")
    frame = SvFrame(
        dst=MacAddress(data[0:6]),
        src=MacAddress(data[6:12]),
        sv_id=sv_id,
        smp_cnt=smp_cnt,
        currents=_I32X3.unpack(currents),
        voltages=_I32X3.unpack(voltages),
    )
    # no validate(): a u16 count and i32 phases are in range by their width
    object.__setattr__(raw, "_decoded", frame)
    return frame


# ---------------------------------------------------------------------------
# Publisher sequencing
# ---------------------------------------------------------------------------


def next_publication(
    prev: GooseFrame, state_changed: bool, now: int, all_data: tuple[bool, ...] | None = None
) -> GooseFrame:
    """Advance a publisher one step.

    A data change bumps the state number and resets the sequence number;
    a plain retransmission increments the sequence number. ``all_data`` is
    the new publication's points; by default it repeats ``prev``'s.
    """
    prev.validate()
    if state_changed:
        st_num, sq_num = prev.st_num + 1, 0
    else:
        st_num, sq_num = prev.st_num, prev.sq_num + 1
    return GooseFrame(
        prev.dst, prev.src, prev.app_id, prev.gocb_ref, prev.time_allowed_to_live,
        st_num, sq_num, prev.test, now, prev.dataset_ref,
        prev.all_data if all_data is None else all_data,
    )
