#!/usr/bin/env python3
"""Reconcile a pdm_serve metrics scrape against a loadgen serving JSON.

Usage:
    check_metrics.py SCRAPE SERVING_JSON

SCRAPE is a Prometheus text exposition document — a file path, "-" for
stdin, or an http:// URL (the live pdm_serve scrape endpoint). SERVING_JSON
is a pdm.bench_serving.v1 document written by `loadgen --out=...`.

The loadgen tallies, client side, every OK PostPrice response (quotes) and
every OK Observe response by its accept flag (accepts/rejects). The broker
counts the same events server side into pdm_broker_{quotes,accepts,rejects}
_total. With the loadgen as the server's only client, the two tallies must
agree EXACTLY — a counter lost to a dropped metric wire-up, a double count
in a coalesced batch path, or a scrape rendered mid-teardown all surface
here as an integer mismatch, which is the point of the gate.

Checks (exit 1 on any failure):

  * quotes/accepts/rejects: scrape counter == sum of the serving JSON's
    per-series client tallies (exact integer equality).
  * accepts + rejects == quotes within the scrape itself (every issued
    ticket was retired by feedback; nothing leaked).
  * pdm_broker_batch_size_sum == quotes + accepts + rejects: the batch-size
    histogram recorded every served PostPrice/Observe request exactly once.
    The loadgen fails on any request error, so every request it sent was
    quoted, accepted or rejected, and the equality is exact wherever this
    gate runs (the smoke fleet and the chaos job's recovered fleet).
  * pdm_server_protocol_errors_total == 0.
  * pdm_server_waits_total (the event loop's waits, by outcome "spun" or
    "blocked") is present, and its series sum to more than 0: a loop that
    served the load waited for it.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys
import urllib.request

COUNTERS = {
    "pdm_broker_quotes_total": "quotes",
    "pdm_broker_accepts_total": "accepts",
    "pdm_broker_rejects_total": "rejects",
}


def read_scrape(source):
    if source == "-":
        return sys.stdin.read()
    if source.startswith("http://") or source.startswith("https://"):
        try:
            with urllib.request.urlopen(source, timeout=30) as response:
                return response.read().decode("utf-8")
        except OSError as err:
            sys.exit(f"check_metrics: cannot fetch {source}: {err}")
    try:
        with open(source, "r", encoding="utf-8") as fp:
            return fp.read()
    except OSError as err:
        sys.exit(f"check_metrics: cannot read {source}: {err}")


def scrape_counter(text, name):
    """The value of the unlabeled series `name`, or None when absent."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            token = line[len(name) + 1 :].split()[0]
            try:
                return int(float(token))
            except ValueError:
                sys.exit(f"check_metrics: bad value for {name}: {token!r}")
    return None


def scrape_family_sum(text, name):
    """The sum of every labeled series of family `name`, or None when the
    family has no series in the scrape."""
    total = None
    for line in text.splitlines():
        if line.startswith(name + "{"):
            token = line[line.index("}") + 1 :].split()[0]
            try:
                total = (total or 0) + int(float(token))
            except ValueError:
                sys.exit(f"check_metrics: bad value for {name}: {token!r}")
    return total


def load_serving(path):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_metrics: cannot read {path}: {err}")
    if doc.get("schema") != "pdm.bench_serving.v1":
        sys.exit(
            f"check_metrics: {path} has schema {doc.get('schema')!r}, "
            "expected 'pdm.bench_serving.v1'"
        )
    series = doc.get("series", [])
    if not series:
        sys.exit(f"check_metrics: {path} contains no series rows")
    return series


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scrape", help="exposition file, '-' for stdin, or URL")
    parser.add_argument("serving_json", help="pdm.bench_serving.v1 document")
    args = parser.parse_args()

    text = read_scrape(args.scrape)
    series = load_serving(args.serving_json)

    # Client-side tallies, summed across series rows. Rows missing the
    # fields fail loudly: an old loadgen binary cannot arm this gate.
    tallies = {}
    for field in COUNTERS.values():
        total = 0
        for row in series:
            value = row.get(field)
            if value is None:
                sys.exit(
                    f"check_metrics: series {row.get('series')!r} in "
                    f"{args.serving_json} has no {field!r} tally — loadgen "
                    "predates the metrics subsystem; rebuild it"
                )
            total += value
        tallies[field] = total

    failures = []
    scraped = {}
    for counter, field in COUNTERS.items():
        value = scrape_counter(text, counter)
        if value is None:
            failures.append(
                f"  {counter}: missing from the scrape — the server was not "
                "wired to the broker's registry"
            )
            continue
        scraped[field] = value
        if value != tallies[field]:
            failures.append(
                f"  {counter}: scrape says {value}, client tallied "
                f"{tallies[field]} ({field}) — exact reconciliation failed"
            )

    if len(scraped) == len(COUNTERS):
        if scraped["accepts"] + scraped["rejects"] != scraped["quotes"]:
            failures.append(
                f"  accepts ({scraped['accepts']}) + rejects "
                f"({scraped['rejects']}) != quotes ({scraped['quotes']}) — "
                "issued tickets leaked without feedback"
            )

    batch_sum = scrape_counter(text, "pdm_broker_batch_size_sum")
    if batch_sum is None:
        failures.append("  pdm_broker_batch_size_sum: missing from the scrape")
    elif len(scraped) == len(COUNTERS):
        served = scraped["quotes"] + scraped["accepts"] + scraped["rejects"]
        if batch_sum != served:
            failures.append(
                f"  pdm_broker_batch_size_sum: {batch_sum} requests recorded, "
                f"but the broker served {served} (quotes + accepts + rejects) "
                "— a call recorded twice or not at all"
            )

    errors = scrape_counter(text, "pdm_server_protocol_errors_total")
    if errors is None:
        failures.append("  pdm_server_protocol_errors_total: missing from the scrape")
    elif errors != 0:
        failures.append(
            f"  pdm_server_protocol_errors_total: {errors} protocol errors "
            "during the load run"
        )

    waits = scrape_family_sum(text, "pdm_server_waits_total")
    if waits is None:
        failures.append("  pdm_server_waits_total: missing from the scrape")
    elif waits == 0:
        failures.append(
            "  pdm_server_waits_total: 0 event-loop waits although the server "
            "served the load"
        )

    if failures:
        print(
            f"FAIL: {len(failures)} metrics reconciliation failure(s) "
            f"({args.scrape} vs {args.serving_json}):"
        )
        print("\n".join(failures))
        return 1
    print(
        f"OK: scrape reconciles with client tallies exactly "
        f"(quotes={tallies['quotes']}, accepts={tallies['accepts']}, "
        f"rejects={tallies['rejects']}; batch sizes sum to {batch_sum}; "
        f"0 protocol errors; {waits} event-loop waits)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
