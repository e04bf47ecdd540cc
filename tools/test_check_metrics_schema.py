#!/usr/bin/env python3
"""Fixtures for check_metrics_schema.py, the run-report validator.

Each TestCase class pins one group of schema rules. A rejected fixture
must fail for the defect it was built with: every rejection asserts that
the error message names that defect, so a fixture cannot pass by
failing for some other reason. Accepted fixtures use registered metric
prefixes and positive query ids, as real reports do.

CMake registers one ctest per class (ObsSchemaTest.<class>), so a class
here is a ctest there.

Usage:
  test_check_metrics_schema.py               # every class
  test_check_metrics_schema.py CLASS...      # the named classes
"""

import copy
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_metrics_schema as checker  # noqa: E402

MINIMAL = {
    "schema_version": 2,
    "counters": {},
    "gauges": {},
    "histograms": {},
    "spans": [],
    "spans_dropped": 0,
    "queries": {},
}

HISTOGRAM = {"count": 1, "sum": 4, "min": 4, "max": 4, "mean": 4,
             "p50": 4, "p90": 4, "p95": 4, "p99": 4}

SPAN = {"id": 1, "parent": -1, "name": "consistency.check", "depth": 0,
        "start_us": 0, "duration_us": 1, "tid": 1, "scope": 0}

QUERY = {"id": 1, "counters": {"consistency.checks": 3}, "gauges": {},
         "histograms": {}, "spans": 2, "spans_dropped": 0,
         "trip": "deadline"}


def report(drop=(), **fields):
    """MINIMAL with `fields` replaced and the keys in `drop` removed."""
    document = copy.deepcopy(MINIMAL)
    document.update(copy.deepcopy(fields))
    for key in drop:
        del document[key]
    return document


def without(mapping, key):
    """A copy of `mapping` without `key`."""
    trimmed = dict(mapping)
    del trimmed[key]
    return trimmed


def validate(text):
    """Validates every report in `text` as the command line does."""
    for _, document in checker.extract_reports(text, "fixture"):
        checker.validate_report(document)


class _FixtureCase(unittest.TestCase):
    def assertAccepted(self, document):
        validate(json.dumps(document))

    def assertRejectedFor(self, document, defect):
        text = document if isinstance(document, str) else json.dumps(document)
        with self.assertRaises(checker.SchemaError) as caught:
            validate(text)
        self.assertIn(defect, str(caught.exception),
                      "rejected %s for another reason" % text)


class MinimalHandWrittenDocumentValidates(_FixtureCase):
    def test_minimal_document(self):
        self.assertAccepted(MINIMAL)

    def test_populated_document(self):
        self.assertAccepted(report(
            counters={"consistency.checks": 1},
            gauges={"exec.pool_threads": 4},
            histograms={"exec.task_micros": HISTOGRAM},
            spans=[SPAN],
            queries={"q1:check": QUERY}))


class RejectsSchemaV1Documents(_FixtureCase):
    # The v1 layout (no p95, no span tid/scope, no queries section) is
    # rejected even when it is otherwise well formed.
    def test_v1_layout(self):
        self.assertRejectedFor(report(drop=("queries",), schema_version=1),
                               "unsupported schema_version 1")

    def test_v1_with_queries(self):
        self.assertRejectedFor(report(schema_version=1),
                               "unsupported schema_version 1")


class RejectsMalformedDocuments(_FixtureCase):
    def test_not_json(self):
        self.assertRejectedFor("not json", "not JSON")

    def test_not_an_object(self):
        self.assertRejectedFor([1, 2], "document not an object")

    def test_missing_schema_version(self):
        self.assertRejectedFor(report(drop=("schema_version",)),
                               "missing numeric schema_version")

    def test_unsupported_schema_version(self):
        self.assertRejectedFor(report(schema_version=99),
                               "unsupported schema_version 99")

    def test_fractional_schema_version(self):
        self.assertRejectedFor(report(schema_version=2.5),
                               "unsupported schema_version 2.5")

    def test_negative_counter(self):
        self.assertRejectedFor(report(counters={"consistency.checks": -1}),
                               "counter 'consistency.checks' negative")

    def test_counter_of_the_wrong_type(self):
        self.assertRejectedFor(
            report(counters={"consistency.checks": "five"}),
            "counter 'consistency.checks' not numeric")


class RejectsHistogramInvariantViolations(_FixtureCase):
    def test_min_above_max(self):
        histogram = dict(HISTOGRAM, count=2, sum=10, min=8, max=2)
        self.assertRejectedFor(
            report(histograms={"exec.task_micros": histogram}),
            "histogram 'exec.task_micros' has min > max")

    def test_sum_without_samples(self):
        histogram = dict(HISTOGRAM, count=0, sum=10, min=0, max=0)
        self.assertRejectedFor(
            report(histograms={"exec.task_micros": histogram}),
            "histogram 'exec.task_micros' has sum without samples")


class RejectsDanglingSpanParents(_FixtureCase):
    def test_dangling_parent(self):
        self.assertRejectedFor(
            report(spans=[dict(SPAN, parent=99, depth=1)]),
            "span parent 99 not present")

    def test_dangling_parent_after_drops(self):
        # The parent may simply have fallen out of a full buffer.
        self.assertAccepted(
            report(spans=[dict(SPAN, parent=99, depth=1)], spans_dropped=3))


class SchemaV2RequiresQueriesSection(_FixtureCase):
    def test_empty_queries_section(self):
        self.assertAccepted(MINIMAL)

    def test_missing_queries_section(self):
        self.assertRejectedFor(report(drop=("queries",)),
                               "missing queries object")


class SchemaV2ValidatesPerQueryEntries(_FixtureCase):
    def test_query_entry(self):
        self.assertAccepted(report(queries={"q1:answer": QUERY}))

    def test_query_without_trip(self):
        self.assertRejectedFor(
            report(queries={"q1:answer": without(QUERY, "trip")}),
            "query 'q1:answer': missing trip string")


class SchemaV2RequiresSpanThreadAndScopeFields(_FixtureCase):
    def test_complete_span(self):
        self.assertAccepted(report(spans=[SPAN]))

    def test_span_without_tid(self):
        self.assertRejectedFor(report(spans=[without(SPAN, "tid")]),
                               "span missing field 'tid'")

    def test_span_without_scope(self):
        self.assertRejectedFor(report(spans=[without(SPAN, "scope")]),
                               "span missing field 'scope'")


class SchemaV2RequiresP95(_FixtureCase):
    def test_histogram_without_p95(self):
        self.assertRejectedFor(
            report(histograms={"exec.task_micros": without(HISTOGRAM,
                                                           "p95")}),
            "histogram 'exec.task_micros' missing field 'p95'")


class RejectsUnregisteredNamesAndQueryIds(_FixtureCase):
    # Every instrument lives under a registered subsystem prefix, and
    # scope ids start at 1.
    def test_unregistered_counter_prefix(self):
        self.assertRejectedFor(report(counters={"obs_test.counter": 1}),
                               "counter 'obs_test.counter' outside the "
                               "known subsystem prefixes")

    def test_query_id_zero(self):
        self.assertRejectedFor(
            report(queries={"q0:answer": dict(QUERY, id=0)}),
            "query 'q0:answer': missing positive numeric id")


if __name__ == "__main__":
    unittest.main(verbosity=2)
