#!/usr/bin/env python3
"""Validate psc::obs run-report JSON against the documented schema.

Accepts either format the toolchain emits:
  * a single run report object, as written by `psc ... --metrics-out=FILE`
    (schema_version 2; see src/psc/obs/report.h), or
  * JSON-lines of bench metrics records, one
    `{"bench": <name>, "metrics": <run report>}` object per line, as
    appended by the benchmarks when PSC_BENCH_METRICS_OUT is set.

Schema v2 carries interpolated percentiles (p95 among the histogram
fields), per-span `tid`/`scope` fields, and a per-query `queries` object
holding each obs::Scope's deltas and limits trip. Schema v1 (no p95, no
span `tid`/`scope`, no `queries`) is rejected.

Usage:
  check_metrics_schema.py FILE...
  check_metrics_schema.py --require-counter consistency.checks FILE
  check_metrics_schema.py --require-trip deadline FILE
  psc check data/example51.psc --metrics-out=/dev/stdout --quiet \
      | check_metrics_schema.py -

Exits 0 when every report validates (and every required counter is
present with a positive value, and every required trip reason appears
on some query, in at least one report), 1 otherwise. This is the
project's only run-report validator; tools/test_check_metrics_schema.py
holds its fixtures.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 2

# Every instrument name must live under a known subsystem prefix, so a
# typo'd or undocumented metric fails CI instead of silently shipping.
# Keep in sync with the PSC_OBS_* call sites; `delta.` covers the
# incremental engine (batch application, index maintenance, dirty-scoped
# consistency and the group-scoped answer cache); `serve.` covers the
# resident query service (admission, batching, per-verb latency).
KNOWN_PREFIXES = (
    "algebra.",
    "brute_force.",
    "consistency.",
    "counting.",
    "delta.",
    "eval.",
    "exec.",
    "hitting_set.",
    "limits.",
    "obs.",
    "query.",
    "rewriting.",
    "serve.",
    "tableau.",
    "trace.",
)

HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p90",
                    "p95", "p99")
SPAN_NUMERIC_FIELDS = ("parent", "depth", "start_us", "duration_us", "tid",
                       "scope")


class SchemaError(Exception):
    pass


def _expect(condition, message):
    if not condition:
        raise SchemaError(message)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_prefix(name, kind, where):
    _expect(any(name.startswith(prefix) for prefix in KNOWN_PREFIXES),
            "%s%s %r outside the known subsystem prefixes %s"
            % (where, kind, name, "/".join(p.rstrip(".")
                                           for p in KNOWN_PREFIXES)))


def _validate_instruments(container, where):
    """Validates the counters/gauges/histograms trio inside `container`."""
    counters = container.get("counters")
    _expect(isinstance(counters, dict), "%smissing counters object" % where)
    for name, value in counters.items():
        _check_prefix(name, "counter", where)
        _expect(_is_number(value), "%scounter %r not numeric" % (where, name))
        _expect(value >= 0, "%scounter %r negative" % (where, name))

    gauges = container.get("gauges")
    _expect(isinstance(gauges, dict), "%smissing gauges object" % where)
    for name, value in gauges.items():
        _check_prefix(name, "gauge", where)
        _expect(_is_number(value), "%sgauge %r not numeric" % (where, name))

    histograms = container.get("histograms")
    _expect(isinstance(histograms, dict),
            "%smissing histograms object" % where)
    for name, snapshot in histograms.items():
        _check_prefix(name, "histogram", where)
        _expect(isinstance(snapshot, dict),
                "%shistogram %r not an object" % (where, name))
        for field in HISTOGRAM_FIELDS:
            _expect(field in snapshot, "%shistogram %r missing field %r"
                    % (where, name, field))
            _expect(_is_number(snapshot[field]) and snapshot[field] >= 0,
                    "%shistogram %r field %r not a non-negative number"
                    % (where, name, field))
        _expect(snapshot["count"] > 0 or snapshot["sum"] == 0,
                "%shistogram %r has sum without samples" % (where, name))
        _expect(snapshot["min"] <= snapshot["max"],
                "%shistogram %r has min > max" % (where, name))


def validate_report(report):
    """Raises SchemaError when `report` is not a valid run report."""
    _expect(isinstance(report, dict), "document not an object")
    version = report.get("schema_version")
    _expect(_is_number(version), "missing numeric schema_version")
    _expect(version == SCHEMA_VERSION,
            "unsupported schema_version %r" % (version,))

    _validate_instruments(report, "")

    spans = report.get("spans")
    _expect(isinstance(spans, list), "missing spans array")
    span_ids = set()
    for span in spans:
        _expect(isinstance(span, dict), "span not an object")
        _expect(_is_number(span.get("id")), "span missing numeric id")
        _expect(isinstance(span.get("name"), str), "span missing name")
        for field in SPAN_NUMERIC_FIELDS:
            _expect(_is_number(span.get(field)),
                    "span missing field %r" % field)
        span_ids.add(int(span["id"]))

    dropped = report.get("spans_dropped")
    _expect(_is_number(dropped) and dropped >= 0,
            "missing numeric spans_dropped")
    # Parent links are only guaranteed complete when nothing was dropped.
    if dropped == 0:
        for span in spans:
            parent = int(span["parent"])
            _expect(parent == -1 or parent in span_ids,
                    "span parent %d not present in the report" % parent)

    queries = report.get("queries")
    _expect(isinstance(queries, dict), "missing queries object")
    for name, query in queries.items():
        _expect(isinstance(query, dict), "query %r not an object" % name)
        where = "query %r: " % name
        _expect(_is_number(query.get("id")) and query["id"] > 0,
                where + "missing positive numeric id")
        _validate_instruments(query, where)
        for field in ("spans", "spans_dropped"):
            _expect(_is_number(query.get(field)) and query[field] >= 0,
                    where + "field %r not a non-negative number" % field)
        _expect(isinstance(query.get("trip"), str),
                where + "missing trip string")


def extract_reports(text, origin):
    """Yields (label, report) pairs for every run report found in `text`."""
    stripped = text.strip()
    if not stripped:
        raise SchemaError("%s: empty input" % origin)
    try:
        document = json.loads(stripped)
    except ValueError:
        document = None
    if document is not None:
        if isinstance(document, dict) and "metrics" in document:
            yield ("%s (bench %r)" % (origin, document.get("bench")),
                   document["metrics"])
        else:
            yield (origin, document)
        return
    # Fall back to JSON-lines (bench metrics records).
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise SchemaError("%s:%d: not JSON: %s" % (origin, lineno, error))
        if isinstance(record, dict) and "metrics" in record:
            yield ("%s:%d (bench %r)" % (origin, lineno, record.get("bench")),
                   record["metrics"])
        else:
            yield ("%s:%d" % (origin, lineno), record)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="run-report JSON or bench JSONL ('-' = stdin)")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="fail unless some report has NAME > 0 "
                             "(repeatable)")
    parser.add_argument("--require-trip", action="append", default=[],
                        metavar="REASON",
                        help="fail unless some query in some report "
                             "tripped with REASON (repeatable)")
    args = parser.parse_args(argv)

    failures = 0
    reports = 0
    seen_counters = {}
    seen_trips = set()
    for path in args.files:
        try:
            text = (sys.stdin.read() if path == "-"
                    else open(path, "r", encoding="utf-8").read())
        except OSError as error:
            print("FAIL %s: %s" % (path, error), file=sys.stderr)
            failures += 1
            continue
        try:
            for label, report in extract_reports(text, path):
                validate_report(report)
                reports += 1
                for name, value in report["counters"].items():
                    seen_counters[name] = max(seen_counters.get(name, 0),
                                              value)
                for query in report["queries"].values():
                    if query["trip"]:
                        seen_trips.add(query["trip"])
                print("ok   %s (%d counters, %d spans, %d queries)"
                      % (label, len(report["counters"]),
                         len(report["spans"]),
                         len(report["queries"])))
        except SchemaError as error:
            print("FAIL %s" % error, file=sys.stderr)
            failures += 1

    for name in args.require_counter:
        if seen_counters.get(name, 0) <= 0:
            print("FAIL required counter %r missing or zero" % name,
                  file=sys.stderr)
            failures += 1

    for reason in args.require_trip:
        if reason not in seen_trips:
            print("FAIL no query tripped with reason %r" % reason,
                  file=sys.stderr)
            failures += 1

    if failures:
        return 1
    print("validated %d report(s)" % reports)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
