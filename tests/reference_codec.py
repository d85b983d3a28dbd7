"""The TLV-reader decoder the codec used to ship, kept as a reference.

``gridshield.codec`` decodes each frame in one pass over its bytes. The
equivalence tests in ``test_codec.py`` hold it to this straightforward
reader: on any bytes, both accept with equal frames or raise the same
``CodecError`` subclass.
"""

from __future__ import annotations

import struct

from gridshield.codec import (
    ETH_HEADER_LEN,
    FRAME_HEADER_LEN,
    GOOSE_ETHERTYPE,
    SV_ETHERTYPE,
    GooseFrame,
    MacAddress,
    MalformedField,
    RawFrame,
    SvFrame,
    Truncated,
    WrongEthertype,
    _TAG_ALL_DATA,
    _TAG_CURRENTS,
    _TAG_DATASET_REF,
    _TAG_GOCB_REF,
    _TAG_SMP_CNT,
    _TAG_SQ_NUM,
    _TAG_ST_NUM,
    _TAG_SV_ID,
    _TAG_TEST,
    _TAG_TIMESTAMP,
    _TAG_TTL,
    _TAG_VOLTAGES,
)

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
