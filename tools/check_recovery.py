#!/usr/bin/env python3
"""Assert crash-consistent spill recovery across a pdm_serve kill -9 drill.

The CI chaos job runs this in three steps around a hard server kill:

    check_recovery.py snapshot SPILL_DIR --out manifest.json
        # ... kill -9 pdm_serve; restart it on the same --spill_dir ...
    check_recovery.py verify-files manifest.json SPILL_DIR
    check_recovery.py verify-scrape manifest.json SCRAPE --serve-log serve2.log

`snapshot` fingerprints every durable spill the killed server left behind.
A spill file (*.snap) is a pack: one or more pdm.snap envelopes back to back
(magic, u32 version, u32 body size, body, u32 CRC). Each live envelope is
one spilled session, fingerprinted by file, offset, size and SHA-256; an
envelope whose magic was overwritten with the tombstone magic was consumed
by a fault-in and is skipped. Byte-identical live records are one spill: a
kill between a cleaning wave's landing and its retires leaves a relocated
record in both its old pack and the new one, and the restart adopts it
once. A drill that spilled nothing proves nothing, so a directory without a
live record is a hard failure, not a quiet pass, and so is a *.snap file
that does not split into envelopes.

`verify-files` runs after the restart and asserts every fingerprinted record
still exists in the directory *byte-for-byte*. Comparison is by content
hash, not by file or offset, so records may move between files — losing or
altering the bytes may not. New records written by the restarted server are
ignored.

`verify-scrape` closes the loop on the restarted server's own accounting:
the RECOVERY handshake line in its log must report exactly one adoption per
fingerprinted record (none dropped, none double-counted), and the metrics
scrape must show zero spill corruptions — recovery that quarantined a file
is data loss, and the drill must say so.

Stdlib only; no third-party dependencies. Prints "OK: ..." and exits 0, or
"FAIL: ..." and exits 1 (CI treats this as the drill's verdict).
"""

import argparse
import hashlib
import json
import pathlib
import re
import struct
import sys
import urllib.request

MANIFEST_SCHEMA = "pdm.spill_manifest.v2"

# pdm.snap envelope framing (src/broker/snapshot.h) and the cold tier's
# tombstone (src/broker/spill_store.h).
SNAP_MAGIC = b"PDMSNAP2"
TOMBSTONE_MAGIC = b"PDMTOMB2"
HEADER_BYTES = 16
TRAILER_BYTES = 4


def fail(message):
    print(f"FAIL: {message}")
    return 1


def spill_files(directory):
    """Durable spills only: *.snap, not *.tmp halves or *.quarantined."""
    return sorted(p for p in pathlib.Path(directory).glob("*.snap") if p.is_file())


def split_envelopes(data):
    """Frames a pack's bytes into envelopes from their headers.

    Returns ([(offset, envelope bytes, tombstoned)], end), where end is the
    offset of the first byte that does not frame (len(data) when all do).
    """
    envelopes = []
    offset = 0
    while offset + HEADER_BYTES + TRAILER_BYTES <= len(data):
        magic = data[offset : offset + 8]
        if magic not in (SNAP_MAGIC, TOMBSTONE_MAGIC):
            break
        (body,) = struct.unpack_from("<I", data, offset + 12)
        size = HEADER_BYTES + body + TRAILER_BYTES
        if offset + size > len(data):
            break
        envelopes.append((offset, data[offset : offset + size], magic == TOMBSTONE_MAGIC))
        offset += size
    return envelopes, offset


def live_records(directory):
    """Every live record as (file name, offset, envelope bytes), plus the
    names of files with bytes that do not frame."""
    records = []
    unframed = []
    for path in spill_files(directory):
        data = path.read_bytes()
        envelopes, end = split_envelopes(data)
        if end != len(data):
            unframed.append(f"{path.name} (at byte {end})")
        records.extend(
            (path.name, offset, envelope)
            for offset, envelope, tombstoned in envelopes
            if not tombstoned
        )
    return records, unframed


def load_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_recovery: cannot read {path}: {err}")
    if doc.get("schema") != MANIFEST_SCHEMA:
        sys.exit(
            f"check_recovery: {path} has schema {doc.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA!r}"
        )
    if not doc.get("records"):
        sys.exit(f"check_recovery: {path} fingerprints no spills")
    return doc


def read_scrape(source):
    if source == "-":
        return sys.stdin.read()
    if source.startswith("http://") or source.startswith("https://"):
        try:
            with urllib.request.urlopen(source, timeout=30) as response:
                return response.read().decode("utf-8")
        except OSError as err:
            sys.exit(f"check_recovery: cannot fetch {source}: {err}")
    try:
        with open(source, "r", encoding="utf-8") as fp:
            return fp.read()
    except OSError as err:
        sys.exit(f"check_recovery: cannot read {source}: {err}")


def scrape_counter(text, name):
    for line in text.splitlines():
        if line.startswith(name + " "):
            token = line[len(name) + 1 :].split()[0]
            try:
                return int(float(token))
            except ValueError:
                sys.exit(f"check_recovery: bad value for {name}: {token!r}")
    return None


def cmd_snapshot(args):
    directory = pathlib.Path(args.spill_dir)
    if not directory.is_dir():
        return fail(f"{directory} is not a directory — did pdm_serve spill at all?")
    records, unframed = live_records(directory)
    if unframed:
        return fail(
            f"{directory}: *.snap bytes that are not pdm.snap envelopes: "
            f"{', '.join(unframed)} — a published pack was torn"
        )
    if not records:
        return fail(
            f"{directory} holds no live *.snap spill records — a drill with "
            "nothing durable to recover proves nothing (lower --max_resident "
            "or drive more products)"
        )
    # One entry per distinct envelope: the first copy found stands for its
    # byte-identical duplicates.
    spills = {}
    for name, offset, envelope in records:
        spills.setdefault(hashlib.sha256(envelope).hexdigest(), (name, offset, len(envelope)))
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "spill_dir": str(directory),
        "records": [
            {"name": name, "offset": offset, "bytes": size, "sha256": digest}
            for digest, (name, offset, size) in spills.items()
        ],
    }
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2)
        fp.write("\n")
    duplicates = len(records) - len(spills)
    print(
        f"OK: fingerprinted {len(spills)} spill record(s) from {directory} "
        f"into {args.out}"
        + (f" ({duplicates} byte-identical duplicate(s) counted once)" if duplicates else "")
    )
    return 0


def cmd_verify_files(args):
    manifest = load_manifest(args.manifest)
    directory = pathlib.Path(args.spill_dir)
    if not directory.is_dir():
        return fail(f"{directory} is not a directory")
    # Content-addressed: compare the set of surviving live records, not
    # where they sit.
    records, _unframed = live_records(directory)
    survivors = {hashlib.sha256(envelope).hexdigest() for _, _, envelope in records}

    failures = []
    for entry in manifest["records"]:
        if entry["sha256"] not in survivors:
            failures.append(
                f"  {entry['name']}@{entry['offset']} ({entry['bytes']} bytes, "
                f"sha256 {entry['sha256'][:12]}...): no byte-identical live "
                "spill record survived the restart — recovery lost or altered it"
            )
    quarantined = sorted(
        p.name for p in directory.glob("*.quarantined") if p.is_file()
    )
    if quarantined:
        failures.append(
            f"  quarantined spill(s) after restart: {', '.join(quarantined)} — "
            "the durable write path tore a record"
        )
    if failures:
        print(
            f"FAIL: {len(failures)} spill durability failure(s) "
            f"({args.manifest} vs {directory}):"
        )
        print("\n".join(failures))
        return 1
    print(
        f"OK: all {len(manifest['records'])} pre-kill spill record(s) survived "
        "the restart byte-for-byte (0 quarantined)"
    )
    return 0


def cmd_verify_scrape(args):
    manifest = load_manifest(args.manifest)
    expected = len(manifest["records"])
    failures = []

    if args.serve_log:
        try:
            with open(args.serve_log, "r", encoding="utf-8") as fp:
                log = fp.read()
        except OSError as err:
            sys.exit(f"check_recovery: cannot read {args.serve_log}: {err}")
        match = re.search(
            r"^RECOVERY adopted=(\d+) tmp=(\d+) corrupt=(\d+) orphans=(\d+)",
            log,
            re.MULTILINE,
        )
        if not match:
            failures.append(
                f"  {args.serve_log}: no RECOVERY handshake line — the server "
                "predates the recovery sweep; rebuild it"
            )
        else:
            adopted, _tmp, corrupt, _orphans = map(int, match.groups())
            if adopted != expected:
                failures.append(
                    f"  RECOVERY adopted={adopted}, but the manifest "
                    f"fingerprints {expected} spill(s) — the restarted fleet "
                    "did not reclaim every durable session"
                )
            if corrupt != 0:
                failures.append(
                    f"  RECOVERY corrupt={corrupt} — the sweep quarantined "
                    "spill(s) the kill should have left intact"
                )

    text = read_scrape(args.scrape)
    corruptions = scrape_counter(text, "pdm_broker_spill_corruptions_total")
    if corruptions is None:
        failures.append(
            "  pdm_broker_spill_corruptions_total: missing from the scrape"
        )
    elif corruptions != 0:
        failures.append(
            f"  pdm_broker_spill_corruptions_total: {corruptions} corruption(s) "
            "detected while serving recovered sessions"
        )

    if failures:
        print(f"FAIL: {len(failures)} recovery accounting failure(s):")
        print("\n".join(failures))
        return 1
    print(
        f"OK: restarted server adopted all {expected} spill(s) with zero "
        "corruptions"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    snap = sub.add_parser("snapshot", help="fingerprint a spill directory")
    snap.add_argument("spill_dir", help="pdm_serve --spill_dir directory")
    snap.add_argument("--out", required=True, help="manifest JSON output path")
    snap.set_defaults(func=cmd_snapshot)

    files = sub.add_parser(
        "verify-files", help="assert fingerprinted spills survived byte-for-byte"
    )
    files.add_argument("manifest", help="manifest written by `snapshot`")
    files.add_argument("spill_dir", help="the same directory, after restart")
    files.set_defaults(func=cmd_verify_files)

    scrape = sub.add_parser(
        "verify-scrape", help="assert the restarted server's recovery accounting"
    )
    scrape.add_argument("manifest", help="manifest written by `snapshot`")
    scrape.add_argument("scrape", help="exposition file, '-' for stdin, or URL")
    scrape.add_argument(
        "--serve-log",
        default="",
        help="restarted pdm_serve stdout (checks the RECOVERY handshake line)",
    )
    scrape.set_defaults(func=cmd_verify_scrape)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
