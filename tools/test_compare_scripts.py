#!/usr/bin/env python3
"""Unit tests for the CI compare scripts (stdlib unittest; registered with
CTest as `compare_scripts_test`).

The scripts are exercised as subprocesses — exit status and stdout are their
public contract with CI. The regression pinned here is the silently disarmed
gate: a baseline with a non-positive metric, or a hardware mismatch, must be
LOUD (hard failure, or exit 0 with a ::warning:: annotation), never a quiet
pass.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
SCALING = TOOLS / "compare_broker_scaling.py"
SERVING = TOOLS / "compare_serving.py"
MEMORY = TOOLS / "compare_memory.py"
CHECK_METRICS = TOOLS / "check_metrics.py"
METRICS_TO_JSON = TOOLS / "metrics_to_json.py"


def run(script, *argv):
    proc = subprocess.run(
        [sys.executable, str(script), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc.returncode, proc.stdout


def scaling_doc(rate=100000.0, hw=4, series="own-product/t=1", extra_series=()):
    rows = [
        {
            "series": series,
            "aggregate_rounds_per_sec": rate,
        }
    ]
    for name, value in extra_series:
        rows.append({"series": name, "aggregate_rounds_per_sec": value})
    return {
        "schema": "pdm.bench_broker.v2",
        "hardware_concurrency": hw,
        "series": rows,
    }


def serving_doc(p50=100000, p99=500000, p999=900000, rps=8000.0, hw=4, errors=0,
                quotes=1000, accepts=600, rejects=400):
    return {
        "schema": "pdm.bench_serving.v1",
        "hardware_concurrency": hw,
        "series": [
            {
                "series": "round-trip",
                "errors": errors,
                "quotes": quotes,
                "accepts": accepts,
                "rejects": rejects,
                "achieved_rounds_per_sec": rps,
                "latency_ns": {"p50": p50, "p99": p99, "p999": p999},
            }
        ],
    }


def scrape_text(quotes=1000, accepts=600, rejects=400, protocol_errors=0,
                waits_spun=700, waits_blocked=300, batch_size_sum=None, omit=()):
    """A minimal pdm_serve exposition document for check_metrics tests.
    The batch-size sum defaults to one record per served request."""
    if batch_size_sum is None:
        batch_size_sum = quotes + accepts + rejects
    lines = []
    for name, value in (
        ("pdm_broker_quotes_total", quotes),
        ("pdm_broker_accepts_total", accepts),
        ("pdm_broker_rejects_total", rejects),
        ("pdm_server_protocol_errors_total", protocol_errors),
    ):
        if name in omit:
            continue
        lines.append(f"# HELP {name} test counter.")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    if "pdm_broker_batch_size" not in omit:
        lines.append("# HELP pdm_broker_batch_size test histogram.")
        lines.append("# TYPE pdm_broker_batch_size histogram")
        lines.append(f'pdm_broker_batch_size_bucket{{le="+Inf"}} {batch_size_sum}')
        lines.append(f"pdm_broker_batch_size_sum {batch_size_sum}")
        lines.append(f"pdm_broker_batch_size_count {batch_size_sum}")
    if "pdm_server_waits_total" not in omit:
        lines.append("# HELP pdm_server_waits_total test counter.")
        lines.append("# TYPE pdm_server_waits_total counter")
        lines.append(f'pdm_server_waits_total{{outcome="spun"}} {waits_spun}')
        lines.append(f'pdm_server_waits_total{{outcome="blocked"}} {waits_blocked}')
    return "\n".join(lines) + "\n"


def memory_series(name, packed, bytes_per_product, fault_count=0, touch_errors=0):
    return {
        "series": name,
        "packed": packed,
        "bytes_per_product": bytes_per_product,
        "touch_errors": touch_errors,
        "resolve_ns": {"p50": 200, "p99": 900},
        "touch_ns": {"p50": 2000, "p99": 9000, "count": 10000},
        "fault_in_ns": {
            "p50": 5000000 if fault_count else 0,
            "p99": 12000000 if fault_count else 0,
            "count": fault_count,
        },
    }


def memory_doc(dense=10000.0, packed=4000.0, hw=4, touch_errors=0):
    return {
        "schema": "pdm.bench_memory.v1",
        "hardware_concurrency": hw,
        "series": [
            memory_series("packed-cold", True, packed, fault_count=5000,
                          touch_errors=touch_errors),
            memory_series("dense-resident", False, dense),
        ],
    }


class CompareScriptTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = pathlib.Path(self._dir.name) / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    # ------------------------------------------------ scaling: pass/fail

    def test_scaling_ok(self):
        base = self.write("base.json", scaling_doc(rate=100000.0))
        cur = self.write("cur.json", scaling_doc(rate=99000.0))
        code, out = run(SCALING, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_scaling_regression_fails(self):
        base = self.write("base.json", scaling_doc(rate=100000.0))
        cur = self.write("cur.json", scaling_doc(rate=50000.0))
        code, out = run(SCALING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("regressed", out)

    def test_scaling_missing_series_fails(self):
        base = self.write(
            "base.json",
            scaling_doc(extra_series=[("shared-product/t=1", 90000.0)]),
        )
        cur = self.write("cur.json", scaling_doc())
        code, out = run(SCALING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from current", out)

    def test_scaling_new_series_in_current_fails(self):
        """The set diff is symmetric: a series only in CURRENT fails too.

        A sweep cell the committed baseline has never adopted is a gate that
        can never arm; it must force a baseline refresh, not slide by as an
        unmonitored extra row.
        """
        base = self.write("base.json", scaling_doc())
        cur = self.write(
            "cur.json",
            scaling_doc(extra_series=[("own-product/t=1/b=8", 90000.0)]),
        )
        code, out = run(SCALING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from baseline", out)
        self.assertIn("refresh the committed baseline", out)

    # -------------------------------- scaling: the disarmed-gate bugfixes

    def test_scaling_zero_baseline_fails_loudly(self):
        """A non-positive baseline metric must FAIL, not silently pass."""
        base = self.write("base.json", scaling_doc(rate=0.0))
        cur = self.write("cur.json", scaling_doc(rate=100.0))
        code, out = run(SCALING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("non-positive", out)
        self.assertIn("re-record", out)

    def test_scaling_hardware_mismatch_skips_with_warning_annotation(self):
        base = self.write("base.json", scaling_doc(hw=1))
        cur = self.write("cur.json", scaling_doc(hw=4, rate=10.0))
        code, out = run(SCALING, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("SKIPPED", out)
        self.assertIn("::warning", out)

    def test_scaling_skip_annotation_is_one_summary_listing_all_series(self):
        """ONE ::warning annotation per document, naming every skipped series
        — not one annotation per series (which drowns the checks UI)."""
        base = self.write(
            "base.json",
            scaling_doc(hw=1, extra_series=[("shared-product/t=1", 90000.0),
                                            ("own-product/t=8", 80000.0)]),
        )
        cur = self.write("cur.json", scaling_doc(hw=4))
        code, out = run(SCALING, base, cur)
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count("::warning"), 1)
        self.assertIn("3 series skipped", out)
        for name in ("own-product/t=1", "own-product/t=8", "shared-product/t=1"):
            self.assertIn(name, out)

    def test_scaling_hardware_mismatch_forced_comparison(self):
        base = self.write("base.json", scaling_doc(hw=1, rate=100000.0))
        cur = self.write("cur.json", scaling_doc(hw=4, rate=10.0))
        code, out = run(SCALING, base, cur, "--ignore-hardware-mismatch")
        self.assertEqual(code, 1, out)
        self.assertIn("regressed", out)

    # ------------------------------------------------------- serving

    def test_serving_ok(self):
        base = self.write("base.json", serving_doc())
        cur = self.write("cur.json", serving_doc(p99=520000, rps=7900.0))
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_serving_latency_regression_fails(self):
        base = self.write("base.json", serving_doc(p99=500000))
        cur = self.write("cur.json", serving_doc(p99=2000000))
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("p99 latency rose", out)

    def test_serving_latency_within_tolerance_passes(self):
        # Default latency tolerance is 1.0: doubling is the boundary.
        base = self.write("base.json", serving_doc(p999=900000))
        cur = self.write("cur.json", serving_doc(p999=1700000))
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 0, out)

    def test_serving_throughput_regression_fails(self):
        base = self.write("base.json", serving_doc(rps=8000.0))
        cur = self.write("cur.json", serving_doc(rps=4000.0))
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("achieved_rounds_per_sec", out)

    def test_serving_errors_fail(self):
        base = self.write("base.json", serving_doc())
        cur = self.write("cur.json", serving_doc(errors=3))
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("request errors", out)

    def test_serving_zero_baseline_fails_loudly(self):
        base = self.write("base.json", serving_doc(p50=0))
        cur = self.write("cur.json", serving_doc())
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("non-positive", out)

    def test_serving_hardware_mismatch_skips_with_warning_annotation(self):
        base = self.write("base.json", serving_doc(hw=1))
        cur = self.write("cur.json", serving_doc(hw=4, p99=10**9))
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("SKIPPED", out)
        self.assertEqual(out.count("::warning"), 1)
        self.assertIn("series skipped: round-trip", out)

    def test_serving_missing_series_fails(self):
        base = self.write("base.json", serving_doc())
        doc = serving_doc()
        doc["series"][0]["series"] = "renamed"
        cur = self.write("cur.json", doc)
        code, out = run(SERVING, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from current", out)

    def test_serving_wrong_schema_rejected(self):
        base = self.write("base.json", serving_doc())
        cur = self.write("cur.json", scaling_doc())
        code, out = run(SERVING, base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("schema", out)

    # ------------------------------------------------------- memory

    def test_memory_ok(self):
        base = self.write("base.json", memory_doc())
        cur = self.write("cur.json", memory_doc(dense=10500.0, packed=4100.0))
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_memory_bytes_per_product_regression_fails(self):
        base = self.write("base.json", memory_doc(packed=4000.0))
        cur = self.write("cur.json", memory_doc(packed=6000.0))
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("bytes_per_product rose", out)

    def test_memory_savings_gate_fails_even_against_matching_baseline(self):
        """The intra-document gate: packed-cold must beat dense-resident by
        --min-savings even when CURRENT matches the baseline perfectly."""
        doc = memory_doc(dense=10000.0, packed=8000.0)  # only 20% savings
        base = self.write("base.json", doc)
        cur = self.write("cur.json", doc)
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("saves only 20.0%", out)

    def test_memory_savings_gate_threshold_is_tunable(self):
        doc = memory_doc(dense=10000.0, packed=8000.0)
        base = self.write("base.json", doc)
        cur = self.write("cur.json", doc)
        code, out = run(MEMORY, base, cur, "--min-savings=0.15")
        self.assertEqual(code, 0, out)

    def test_memory_missing_required_series_fails(self):
        base = self.write("base.json", memory_doc())
        doc = memory_doc()
        doc["series"] = [doc["series"][1]]  # drop packed-cold
        cur = self.write("cur.json", doc)
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("'packed-cold' is missing", out)

    def test_memory_touch_errors_fail(self):
        base = self.write("base.json", memory_doc())
        cur = self.write("cur.json", memory_doc(touch_errors=2))
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("touch errors", out)

    def test_memory_zero_baseline_fails_loudly(self):
        base = self.write("base.json", memory_doc(dense=0.0))
        cur = self.write("cur.json", memory_doc())
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("non-positive", out)
        self.assertIn("re-record", out)

    def test_memory_fault_latency_regression_fails(self):
        base = self.write("base.json", memory_doc())
        doc = memory_doc()
        doc["series"][0]["fault_in_ns"]["p99"] = 50000000
        cur = self.write("cur.json", doc)
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("fault_in_ns.p99 rose", out)

    def test_memory_empty_fault_histogram_in_both_documents_is_not_a_gate(self):
        # The dense series never faults; an all-zero fault_in_ns group on
        # both sides must not trip the non-positive-baseline check.
        base = self.write("base.json", memory_doc())
        cur = self.write("cur.json", memory_doc())
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 0, out)

    def test_memory_hardware_mismatch_skips_baseline_but_keeps_savings_gate(self):
        # Baseline comparison skipped (different machine class), but the
        # intra-document savings gate still runs — and passes here.
        base = self.write("base.json", memory_doc(hw=1))
        cur = self.write("cur.json", memory_doc(hw=4, packed=4100.0))
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("SKIPPED", out)
        self.assertEqual(out.count("::warning"), 1)
        self.assertIn("series skipped", out)
        self.assertIn("savings gate", out)

    def test_memory_hardware_mismatch_still_fails_on_lost_savings(self):
        base = self.write("base.json", memory_doc(hw=1))
        cur = self.write("cur.json", memory_doc(hw=4, packed=9000.0))
        code, out = run(MEMORY, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("saves only", out)

    def test_memory_hardware_mismatch_forced_comparison(self):
        base = self.write("base.json", memory_doc(hw=1, packed=4000.0))
        cur = self.write("cur.json", memory_doc(hw=4, packed=6000.0))
        code, out = run(MEMORY, base, cur, "--ignore-hardware-mismatch")
        self.assertEqual(code, 1, out)
        self.assertIn("bytes_per_product rose", out)

    def test_memory_wrong_schema_rejected(self):
        base = self.write("base.json", memory_doc())
        cur = self.write("cur.json", serving_doc())
        code, out = run(MEMORY, base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("schema", out)

    # -------------------------------------------- check_metrics (scrapes)

    def write_text(self, name, text):
        path = pathlib.Path(self._dir.name) / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_check_metrics_exact_reconciliation_passes(self):
        scrape = self.write_text("scrape.txt", scrape_text())
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 0, out)
        self.assertIn("reconciles", out)
        self.assertIn("quotes=1000", out)

    def test_check_metrics_counter_mismatch_fails(self):
        # One lost quote: client saw 1000, server counted 999.
        scrape = self.write_text("scrape.txt", scrape_text(quotes=999, rejects=399))
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("exact reconciliation failed", out)
        self.assertIn("pdm_broker_quotes_total", out)

    def test_check_metrics_leaked_tickets_fail(self):
        # Internally inconsistent scrape: accepts + rejects < quotes.
        scrape = self.write_text(
            "scrape.txt", scrape_text(quotes=1000, accepts=600, rejects=300)
        )
        serving = self.write("serving.json", serving_doc(rejects=300))
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("leaked", out)

    def test_check_metrics_missing_counter_fails(self):
        scrape = self.write_text(
            "scrape.txt", scrape_text(omit=("pdm_broker_accepts_total",))
        )
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from the scrape", out)

    def test_check_metrics_batch_size_sum_mismatch_fails(self):
        # Planted: one request recorded twice in the batch-size histogram.
        scrape = self.write_text("scrape.txt", scrape_text(batch_size_sum=2001))
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("pdm_broker_batch_size_sum: 2001 requests recorded", out)
        self.assertIn("served 2000", out)

    def test_check_metrics_missing_batch_size_fails(self):
        scrape = self.write_text(
            "scrape.txt", scrape_text(omit=("pdm_broker_batch_size",))
        )
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("pdm_broker_batch_size_sum: missing", out)

    def test_check_metrics_protocol_errors_fail(self):
        scrape = self.write_text("scrape.txt", scrape_text(protocol_errors=2))
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("protocol errors", out)

    def test_check_metrics_missing_waits_family_fails(self):
        scrape = self.write_text(
            "scrape.txt", scrape_text(omit=("pdm_server_waits_total",))
        )
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("pdm_server_waits_total: missing", out)

    def test_check_metrics_zero_waits_fail(self):
        scrape = self.write_text(
            "scrape.txt", scrape_text(waits_spun=0, waits_blocked=0)
        )
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 1, out)
        self.assertIn("0 event-loop waits", out)

    def test_check_metrics_sums_waits_over_outcomes(self):
        # Either outcome alone is a healthy loop: an idle one only blocks.
        scrape = self.write_text(
            "scrape.txt", scrape_text(waits_spun=0, waits_blocked=5)
        )
        serving = self.write("serving.json", serving_doc())
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 0, out)
        self.assertIn("5 event-loop waits", out)

    def test_check_metrics_old_loadgen_without_tallies_fails_loudly(self):
        scrape = self.write_text("scrape.txt", scrape_text())
        doc = serving_doc()
        for field in ("quotes", "accepts", "rejects"):
            del doc["series"][0][field]
        serving = self.write("serving.json", doc)
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertNotEqual(code, 0, out)
        self.assertIn("rebuild", out)

    def test_check_metrics_sums_tallies_across_series(self):
        scrape = self.write_text(
            "scrape.txt", scrape_text(quotes=1500, accepts=900, rejects=600)
        )
        doc = serving_doc()
        doc["series"].append(
            {"series": "second", "errors": 0, "quotes": 500, "accepts": 300,
             "rejects": 200, "achieved_rounds_per_sec": 1.0,
             "latency_ns": {"p50": 1, "p99": 2, "p999": 3}}
        )
        serving = self.write("serving.json", doc)
        code, out = run(CHECK_METRICS, scrape, serving)
        self.assertEqual(code, 0, out)

    # ------------------------------------------ metrics_to_json (bridge)

    def test_metrics_to_json_converts_families_and_samples(self):
        scrape = self.write_text("scrape.txt", scrape_text())
        code, out = run(METRICS_TO_JSON, scrape)
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        self.assertEqual(doc["schema"], "pdm.metrics_json.v1")
        by_name = {f["name"]: f for f in doc["families"]}
        quotes = by_name["pdm_broker_quotes_total"]
        self.assertEqual(quotes["type"], "counter")
        self.assertEqual(quotes["help"], "test counter.")
        self.assertEqual(quotes["samples"], [
            {"name": "pdm_broker_quotes_total", "labels": {}, "value": 1000}
        ])

    def test_metrics_to_json_groups_histogram_suffixes_and_labels(self):
        text = (
            "# HELP pdm_server_request_ns Wire request latency.\n"
            "# TYPE pdm_server_request_ns histogram\n"
            'pdm_server_request_ns_bucket{le="1023"} 5\n'
            'pdm_server_request_ns_bucket{le="+Inf"} 7\n'
            "pdm_server_request_ns_sum 12345\n"
            "pdm_server_request_ns_count 7\n"
            "# HELP pdm_server_frames_total Frames by opcode.\n"
            "# TYPE pdm_server_frames_total counter\n"
            'pdm_server_frames_total{opcode="post_price"} 9\n'
        )
        scrape = self.write_text("scrape.txt", text)
        code, out = run(METRICS_TO_JSON, scrape)
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        by_name = {f["name"]: f for f in doc["families"]}
        hist = by_name["pdm_server_request_ns"]
        self.assertEqual(hist["type"], "histogram")
        self.assertEqual(len(hist["samples"]), 4)  # suffixes fold into family
        inf_bucket = [s for s in hist["samples"]
                      if s["labels"].get("le") == "+Inf"]
        self.assertEqual(inf_bucket[0]["value"], 7)
        frames = by_name["pdm_server_frames_total"]
        self.assertEqual(frames["samples"][0]["labels"], {"opcode": "post_price"})

    def test_metrics_to_json_unescapes_and_handles_nonfinite(self):
        text = (
            "# HELP esc_total line1\\nback\\\\slash\n"
            "# TYPE esc_total counter\n"
            'esc_total{op="a\\"b\\\\c\\nd"} 1\n'
            "# HELP g A gauge.\n"
            "# TYPE g gauge\n"
            "g NaN\n"
        )
        scrape = self.write_text("scrape.txt", text)
        code, out = run(METRICS_TO_JSON, scrape)
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        by_name = {f["name"]: f for f in doc["families"]}
        self.assertEqual(by_name["esc_total"]["help"], "line1\nback\\slash")
        self.assertEqual(by_name["esc_total"]["samples"][0]["labels"]["op"],
                         'a"b\\c\nd')
        self.assertEqual(by_name["g"]["samples"][0]["value"], "NaN")

    def test_metrics_to_json_writes_out_file(self):
        scrape = self.write_text("scrape.txt", scrape_text())
        out_path = pathlib.Path(self._dir.name) / "metrics.json"
        code, out = run(METRICS_TO_JSON, scrape, f"--out={out_path}")
        self.assertEqual(code, 0, out)
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        self.assertEqual(doc["schema"], "pdm.metrics_json.v1")


if __name__ == "__main__":
    unittest.main()
