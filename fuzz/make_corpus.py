#!/usr/bin/env python3
"""Regenerates the checked-in seed corpora under fuzz/corpus/.

Seeds are of two kinds: well-formed inputs produced by the real
encoders/writers (run `opthash_cli` for the snapshot-based ones), and
hostile shapes carried over from the deterministic PR-6 fuzz suite
(truncations, type confusion, corrupted length prefixes) so the fuzzers
start at the known-interesting corners instead of rediscovering them.

Usage: fuzz/make_corpus.py [--cli build/tools/opthash_cli]

Wire-frame seeds are built directly from the docs/OPERATIONS.md byte
layout (this script is a second, independent rendering of the spec —
if the C++ encoders drift from the doc, replaying these seeds through
the decoders is exactly the test that notices). Snapshot seeds need the
CLI binary; without --cli those are skipped and the existing files kept.
"""

import argparse
import os
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.abspath(__file__))


def write(sub, name, payload):
    path = os.path.join(ROOT, "corpus", sub, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(payload)
    print("%-40s %4d bytes" % (os.path.join(sub, name), len(payload)))


def frame_seeds():
    # NOTE: decode_frame consumes PAYLOADS (bytes after the length
    # prefix), matching the decoders' contract.
    u32 = lambda v: struct.pack("<I", v)
    u64 = lambda v: struct.pack("<Q", v)
    f64 = lambda v: struct.pack("<d", v)
    seeds = {
        "ping": bytes([4]),
        "stats_request": bytes([3]),
        "shutdown": bytes([6]),
        "metrics_request": bytes([8]),
        "window_stats_request": bytes([10]),
        "query_three_keys": bytes([1]) + u32(3) + u64(1) + u64(42) +
            u64(2**63),
        "ingest_two_keys": bytes([2]) + u32(2) + u64(7) + u64(7),
        "topk_request": bytes([7]) + u32(32),
        "estimates_reply": bytes([129]) + u32(2) + f64(1.5) + f64(0.0),
        "ack_reply": bytes([130]) + u64(123456),
        "topk_reply_one_hitter": bytes([133]) + u32(1) + u64(9) +
            f64(10.0) + f64(0.5) + bytes([1]),
        "metrics_reply": bytes([134]) + u32(12) + b"opthash_up 1",
        "window_stats_reply": bytes([135]) + u64(4) + u64(7) + u64(2) +
            f64(0.5) + u32(2) + u64(3) + u64(1),
        "error_reply": bytes([255, 3]) + u32(4) + b"nope",
        # Hostile shapes from the PR-6 mutation classes.
        "hostile_empty": b"",
        "hostile_unknown_type": bytes([77]),
        "hostile_truncated_query": bytes([1]) + u32(100) + u64(1),
        "hostile_overdeclared_windows": bytes([135]) + u64(0) * 3 +
            f64(1.0) + u32(200) + u64(1),
        "hostile_topk_flag_byte_2": bytes([133]) + u32(1) + u64(9) +
            f64(10.0) + f64(0.5) + bytes([2]),
    }
    for name, payload in seeds.items():
        write("decode_frame", name, payload)


def windowed_payload(container):
    """The raw kWindowedSketch SECTION payload of a checkpoint (what the
    windowed-restore corpus holds), sliced out of the container per the
    docs/FORMATS.md table layout (entry: u32 type, u32 flags, u64 offset,
    u64 length, u32 crc, u32 pad)."""
    count = struct.unpack_from("<I", container, 0x0C)[0]
    for i in range(count):
        base = 0x20 + 32 * i
        stype = struct.unpack_from("<I", container, base)[0]
        offset = struct.unpack_from("<Q", container, base + 8)[0]
        length = struct.unpack_from("<Q", container, base + 16)[0]
        if stype == 7:  # kWindowedSketch
            return container[offset:offset + length]
    sys.exit("no kWindowedSketch section in the generated checkpoint")


def snapshot_seeds(cli):
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.csv")
        with open(trace, "w") as fh:
            fh.write("id,text\n")
            for key, text in ((1, "a"), (1, "b"), (2, "c"), (3, "a"),
                              (1, "d")):
                fh.write("%d,q%s\n" % (key, text))

        def snap(name, sketch, *extra):
            out = os.path.join(tmp, name + ".bin")
            subprocess.run(
                [cli, "snapshot", "--trace", trace, "--out", out,
                 "--sketch", sketch, "--width", "16", "--depth", "2",
                 *extra],
                check=True, stdout=subprocess.DEVNULL)
            with open(out, "rb") as fh:
                return fh.read()

        plain = snap("plain", "cms")
        windowed = snap("windowed", "cms", "--windows", "2", "--window", "3",
                        "--decay", "0.5")
        windowed_lcms = snap("windowed_lcms", "lcms", "--buckets", "16",
                             "--heavy", "1", "--windows", "2", "--window",
                             "3")
        # A binary model bundle: its estimator section carries the learned
        # table columns the snapshot fuzzer decodes.
        bundle_path = os.path.join(tmp, "bundle.bin")
        subprocess.run(
            [cli, "train", "--trace", trace, "--out", bundle_path,
             "--buckets", "8", "--solver", "dp", "--classifier", "cart",
             "--vocab", "4", "--format", "binary"],
            check=True, stdout=subprocess.DEVNULL)
        with open(bundle_path, "rb") as fh:
            bundle = fh.read()

    write("snapshot_parse", "cms_checkpoint", plain)
    write("snapshot_parse", "windowed_cms_checkpoint", windowed)
    write("snapshot_parse", "opthash_bundle", bundle)
    corrupt = bytearray(plain)
    corrupt[len(corrupt) // 2] ^= 0xFF  # payload bit flip: CRC must catch
    write("snapshot_parse", "hostile_payload_bitflip", bytes(corrupt))
    write("snapshot_parse", "hostile_truncated", plain[:40])
    write("snapshot_parse", "hostile_bad_magic", b"NOTSNAPS" + plain[8:])

    payload = windowed_payload(windowed)
    write("windowed_restore", "windowed_cms_midwindow", payload)
    write("windowed_restore", "windowed_lcms_midwindow",
          windowed_payload(windowed_lcms))
    write("windowed_restore", "hostile_truncated_ring", payload[:21])
    bad_version = bytearray(payload)
    bad_version[0] = 9
    write("windowed_restore", "hostile_future_version", bytes(bad_version))
    lying_w = bytearray(payload)
    struct.pack_into("<I", lying_w, 5, 2 ** 20 + 5)  # W beyond the cap
    write("windowed_restore", "hostile_absurd_window_count", bytes(lying_w))
    foreign = bytearray(payload)
    struct.pack_into("<I", foreign, 1, 5)  # inner type -> misra-gries
    write("windowed_restore", "hostile_cross_kind_inner", bytes(foreign))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", default="",
                        help="path to a built opthash_cli (enables the "
                             "snapshot-based seeds)")
    args = parser.parse_args()
    frame_seeds()
    if args.cli:
        snapshot_seeds(args.cli)
    else:
        print("note: --cli not given; snapshot/windowed seeds not "
              "regenerated")


if __name__ == "__main__":
    main()
