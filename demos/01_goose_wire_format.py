#!/usr/bin/env python3
"""Walk through the GOOSE wire format: encode, hexdump, decode, tamper.

Run:  python3 demos/01_goose_wire_format.py
"""

from gridshield.codec import (
    CodecError,
    GooseFrame,
    MacAddress,
    RawFrame,
    decode_goose,
    encode_goose,
    next_publication,
)


def hexdump(data: bytes) -> str:
    lines = []
    for off in range(0, len(data), 16):
        chunk = data[off : off + 16]
        hexes = " ".join(f"{b:02x}" for b in chunk)
        text = "".join(chr(b) if 0x20 <= b < 0x7F else "." for b in chunk)
        lines.append(f"  {off:04x}  {hexes:<47}  {text}")
    return "\n".join(lines)


frame = GooseFrame(
    dst=MacAddress.parse("01:0C:CD:01:00:01"),
    src=MacAddress.parse("00:30:A7:00:00:01"),
    app_id=0x0001,
    gocb_ref="PIED/LLN0$GO$gcb1",
    time_allowed_to_live=2000,
    st_num=1,
    sq_num=0,
    test=False,
    timestamp=0,
    dataset_ref="PIED/LLN0$dataset1",
    all_data=(False, False),
)

raw = encode_goose(frame)
print(f"A relay publication encodes to {len(raw)} bytes:")
print(hexdump(raw.data))
print()
print("Decoding restores the frame exactly:")
print(f"  {decode_goose(raw)}")
print()

print("Publisher sequencing: retransmissions count up, a data change resets:")
f = frame
for i, changed in enumerate([False, False, True, False]):
    f = next_publication(f, state_changed=changed, now=(i + 1) * 1_000_000)
    label = "data change" if changed else "retransmit"
    print(f"  {label:<12} -> stNum={f.st_num} sqNum={f.sq_num}")
print()

print("Tampering is rejected with typed errors, never a crash:")
for what, mutate in [
    ("flip an ethertype byte", lambda d: d[:12] + b"\x00\x00" + d[14:]),
    ("truncate mid-body", lambda d: d[: len(d) - 5]),
    ("garbage", lambda d: b"\x37" * 40),
]:
    try:
        decode_goose(RawFrame(mutate(raw.data)))
        print(f"  {what}: decoded (unexpected)")
    except CodecError as exc:
        print(f"  {what}: {type(exc).__name__}: {exc}")
