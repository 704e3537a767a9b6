#!/usr/bin/env python3
"""Unit tests for the chaos-drill recovery checker (stdlib unittest;
registered with CTest as `check_recovery_test`).

check_recovery.py is the CI kill -9 drill's verdict, so its own failure
modes are pinned the same way the compare scripts are: an empty spill
directory, a lost or altered spill, a quarantine after restart, or recovery
accounting that disagrees with the manifest must all be LOUD failures —
never a quiet pass that leaves the drill disarmed.
"""

import json
import pathlib
import struct
import subprocess
import sys
import tempfile
import unittest
import zlib

TOOLS = pathlib.Path(__file__).resolve().parent
CHECK_RECOVERY = TOOLS / "check_recovery.py"


def run(*argv):
    proc = subprocess.run(
        [sys.executable, str(CHECK_RECOVERY), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc.returncode, proc.stdout


def envelope(body, magic=b"PDMSNAP2"):
    """A pdm.snap envelope around `body` (the checker never decodes it)."""
    return (
        magic
        + struct.pack("<II", 2, len(body))
        + body
        + struct.pack("<I", zlib.crc32(body))
    )


def tombstone(body):
    """The envelope of a record a fault-in consumed."""
    return envelope(body, magic=b"PDMTOMB2")


def scrape_text(corruptions=0, omit=False):
    if omit:
        return "pdm_broker_quotes_total 5\n"
    return (
        "# HELP pdm_broker_spill_corruptions_total test counter.\n"
        "# TYPE pdm_broker_spill_corruptions_total counter\n"
        f"pdm_broker_spill_corruptions_total {corruptions}\n"
    )


class CheckRecoveryTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self.root = pathlib.Path(self._dir.name)

    def spill_dir(self, name, files):
        directory = self.root / name
        directory.mkdir()
        for filename, payload in files.items():
            (directory / filename).write_bytes(payload)
        return directory

    def manifest_for(self, directory):
        out = self.root / f"{directory.name}.manifest.json"
        code, stdout = run("snapshot", str(directory), f"--out={out}")
        self.assertEqual(code, 0, stdout)
        return out

    def write_text(self, name, text):
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return path

    # ------------------------------------------------------------ snapshot

    def test_snapshot_fingerprints_snap_files_only(self):
        directory = self.spill_dir(
            "pre",
            {
                "pack-0.snap": envelope(b"alpha spill"),
                "pack-1.snap": envelope(b"beta spill"),
                "pack-2.snap.tmp": b"torn half-write",
                "pack-3.snap.0.quarantined": b"damaged",
            },
        )
        out = self.manifest_for(directory)
        doc = json.loads(out.read_text(encoding="utf-8"))
        self.assertEqual(doc["schema"], "pdm.spill_manifest.v2")
        names = [entry["name"] for entry in doc["records"]]
        self.assertEqual(names, ["pack-0.snap", "pack-1.snap"])
        self.assertEqual(doc["records"][0]["bytes"], len(envelope(b"alpha spill")))
        self.assertEqual(len(doc["records"][0]["sha256"]), 64)

    def test_snapshot_fingerprints_each_live_record_of_a_pack(self):
        """A pack of three with one tombstone holds two spills."""
        pack = envelope(b"alpha") + tombstone(b"consumed") + envelope(b"gamma")
        directory = self.spill_dir("pack", {"pack-7.snap": pack})
        doc = json.loads(self.manifest_for(directory).read_text(encoding="utf-8"))
        records = [(r["name"], r["offset"], r["bytes"]) for r in doc["records"]]
        third = len(envelope(b"alpha")) + len(tombstone(b"consumed"))
        self.assertEqual(
            records,
            [
                ("pack-7.snap", 0, len(envelope(b"alpha"))),
                ("pack-7.snap", third, len(envelope(b"gamma"))),
            ],
        )
        # Two adoptions settle it; one is a shortfall.
        scrape = self.write_text("scrape.txt", scrape_text())
        manifest = self.root / "pack.manifest.json"
        code, out = run(
            "verify-scrape", str(manifest), str(scrape),
            f"--serve-log={self.serve_log(adopted=2)}",
        )
        self.assertEqual(code, 0, out)
        code, out = run(
            "verify-scrape", str(manifest), str(scrape),
            f"--serve-log={self.serve_log(adopted=1)}",
        )
        self.assertEqual(code, 1, out)

    def test_snapshot_counts_byte_identical_duplicates_as_one_spill(self):
        """A kill between a cleaning wave's landing and its retires leaves a
        relocated record in two packs; the restart adopts it once."""
        directory = self.spill_dir(
            "dups",
            {
                "pack-3.snap": envelope(b"straggler") + tombstone(b"consumed"),
                "pack-9.snap": envelope(b"victim") + envelope(b"straggler"),
            },
        )
        doc = json.loads(self.manifest_for(directory).read_text(encoding="utf-8"))
        self.assertEqual(
            [(r["name"], r["offset"]) for r in doc["records"]],
            [("pack-3.snap", 0), ("pack-9.snap", 0)],
        )
        manifest = self.root / "dups.manifest.json"
        scrape = self.write_text("scrape.txt", scrape_text())
        code, out = run(
            "verify-scrape", str(manifest), str(scrape),
            f"--serve-log={self.serve_log(adopted=2, orphans=1)}",
        )
        self.assertEqual(code, 0, out)
        # The restart retired the older copy; the newer still holds the bytes.
        (directory / "pack-3.snap").write_bytes(
            tombstone(b"straggler") + tombstone(b"consumed")
        )
        code, out = run("verify-files", str(manifest), str(directory))
        self.assertEqual(code, 0, out)

    def test_snapshot_reads_a_legacy_single_record_file(self):
        """The one-file-per-spill layout is a pack of one."""
        directory = self.spill_dir("legacy", {"slot-4.snap": envelope(b"legacy")})
        doc = json.loads(self.manifest_for(directory).read_text(encoding="utf-8"))
        self.assertEqual(
            [(r["name"], r["offset"]) for r in doc["records"]], [("slot-4.snap", 0)]
        )
        # Adopted in place or rewritten into a pack, the bytes are what count.
        (directory / "slot-4.snap").unlink()
        (directory / "pack-0.snap").write_bytes(envelope(b"new") + envelope(b"legacy"))
        code, out = run("verify-files", str(self.root / "legacy.manifest.json"), str(directory))
        self.assertEqual(code, 0, out)

    def test_snapshot_of_empty_dir_fails_loudly(self):
        """A drill that spilled nothing proves nothing — hard failure."""
        directory = self.spill_dir(
            "empty", {"pack-0.snap.tmp": b"torn", "pack-1.snap": tombstone(b"gone")}
        )
        code, out = run("snapshot", str(directory), f"--out={self.root/'m.json'}")
        self.assertEqual(code, 1, out)
        self.assertIn("proves nothing", out)

    def test_snapshot_of_a_torn_pack_fails(self):
        directory = self.spill_dir(
            "torn", {"pack-0.snap": envelope(b"alpha") + b"PDMSNAP2 torn"}
        )
        code, out = run("snapshot", str(directory), f"--out={self.root/'m.json'}")
        self.assertEqual(code, 1, out)
        self.assertIn("pack-0.snap (at byte", out)

    def test_snapshot_of_missing_dir_fails(self):
        code, out = run(
            "snapshot", str(self.root / "nope"), f"--out={self.root/'m.json'}"
        )
        self.assertEqual(code, 1, out)
        self.assertIn("not a directory", out)

    # --------------------------------------------------------- verify-files

    def test_verify_files_passes_when_bytes_survive(self):
        directory = self.spill_dir(
            "ok", {"pack-0.snap": envelope(b"alpha"), "pack-1.snap": envelope(b"beta")}
        )
        manifest = self.manifest_for(directory)
        code, out = run("verify-files", str(manifest), str(directory))
        self.assertEqual(code, 0, out)
        self.assertIn("byte-for-byte", out)

    def test_verify_files_tolerates_moved_records_and_new_spills(self):
        directory = self.spill_dir("renamed", {"pack-4.snap": envelope(b"adopt me")})
        manifest = self.manifest_for(directory)
        # The record now sits elsewhere, and the restarted broker wrote more.
        (directory / "pack-4.snap").rename(directory / "pack-0.snap")
        (directory / "pack-5.snap").write_bytes(envelope(b"fresh post-restart spill"))
        code, out = run("verify-files", str(manifest), str(directory))
        self.assertEqual(code, 0, out)

    def test_verify_files_fails_on_altered_bytes(self):
        directory = self.spill_dir("torn", {"pack-0.snap": envelope(b"alpha")})
        manifest = self.manifest_for(directory)
        (directory / "pack-0.snap").write_bytes(envelope(b"alphA"))
        code, out = run("verify-files", str(manifest), str(directory))
        self.assertEqual(code, 1, out)
        self.assertIn("lost or altered", out)
        self.assertIn("pack-0.snap@0", out)

    def test_verify_files_fails_on_lost_spill(self):
        directory = self.spill_dir(
            "lost", {"pack-0.snap": envelope(b"alpha"), "pack-1.snap": envelope(b"beta")}
        )
        manifest = self.manifest_for(directory)
        (directory / "pack-1.snap").unlink()
        code, out = run("verify-files", str(manifest), str(directory))
        self.assertEqual(code, 1, out)
        self.assertIn("pack-1.snap", out)

    def test_verify_files_fails_on_a_record_tombstoned_before_adoption(self):
        directory = self.spill_dir(
            "consumed", {"pack-0.snap": envelope(b"alpha") + envelope(b"beta")}
        )
        manifest = self.manifest_for(directory)
        (directory / "pack-0.snap").write_bytes(envelope(b"alpha") + tombstone(b"beta"))
        code, out = run("verify-files", str(manifest), str(directory))
        self.assertEqual(code, 1, out)
        self.assertIn("pack-0.snap@", out)

    def test_verify_files_fails_on_quarantine_after_restart(self):
        directory = self.spill_dir("quar", {"pack-0.snap": envelope(b"alpha")})
        manifest = self.manifest_for(directory)
        (directory / "pack-9.snap.0.quarantined").write_bytes(b"damaged")
        code, out = run("verify-files", str(manifest), str(directory))
        self.assertEqual(code, 1, out)
        self.assertIn("quarantined", out)

    # -------------------------------------------------------- verify-scrape

    def serve_log(self, adopted=2, tmp=0, corrupt=0, orphans=0, omit=False):
        lines = [] if omit else [
            f"RECOVERY adopted={adopted} tmp={tmp} corrupt={corrupt} "
            f"orphans={orphans}"
        ]
        lines.append("LISTENING 7411")
        return self.write_text("serve.log", "\n".join(lines) + "\n")

    def two_spill_manifest(self):
        directory = self.spill_dir(
            "scrape", {"pack-0.snap": envelope(b"alpha") + envelope(b"beta")}
        )
        return self.manifest_for(directory)

    def test_verify_scrape_passes_on_clean_recovery(self):
        manifest = self.two_spill_manifest()
        scrape = self.write_text("scrape.txt", scrape_text())
        log = self.serve_log(adopted=2)
        code, out = run(
            "verify-scrape", str(manifest), str(scrape), f"--serve-log={log}"
        )
        self.assertEqual(code, 0, out)
        self.assertIn("adopted all 2", out)

    def test_verify_scrape_fails_on_adoption_shortfall(self):
        manifest = self.two_spill_manifest()
        scrape = self.write_text("scrape.txt", scrape_text())
        log = self.serve_log(adopted=1)
        code, out = run(
            "verify-scrape", str(manifest), str(scrape), f"--serve-log={log}"
        )
        self.assertEqual(code, 1, out)
        self.assertIn("did not reclaim", out)

    def test_verify_scrape_fails_on_recovery_corruption(self):
        manifest = self.two_spill_manifest()
        scrape = self.write_text("scrape.txt", scrape_text())
        log = self.serve_log(adopted=2, corrupt=1)
        code, out = run(
            "verify-scrape", str(manifest), str(scrape), f"--serve-log={log}"
        )
        self.assertEqual(code, 1, out)
        self.assertIn("quarantined", out)

    def test_verify_scrape_fails_on_missing_handshake_line(self):
        manifest = self.two_spill_manifest()
        scrape = self.write_text("scrape.txt", scrape_text())
        log = self.serve_log(omit=True)
        code, out = run(
            "verify-scrape", str(manifest), str(scrape), f"--serve-log={log}"
        )
        self.assertEqual(code, 1, out)
        self.assertIn("no RECOVERY handshake", out)

    def test_verify_scrape_fails_on_serving_corruptions(self):
        manifest = self.two_spill_manifest()
        scrape = self.write_text("scrape.txt", scrape_text(corruptions=3))
        log = self.serve_log(adopted=2)
        code, out = run(
            "verify-scrape", str(manifest), str(scrape), f"--serve-log={log}"
        )
        self.assertEqual(code, 1, out)
        self.assertIn("3 corruption(s)", out)

    def test_verify_scrape_fails_on_missing_counter(self):
        manifest = self.two_spill_manifest()
        scrape = self.write_text("scrape.txt", scrape_text(omit=True))
        code, out = run("verify-scrape", str(manifest), str(scrape))
        self.assertEqual(code, 1, out)
        self.assertIn("missing from the scrape", out)

    def test_verify_scrape_without_log_checks_scrape_only(self):
        manifest = self.two_spill_manifest()
        scrape = self.write_text("scrape.txt", scrape_text())
        code, out = run("verify-scrape", str(manifest), str(scrape))
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
