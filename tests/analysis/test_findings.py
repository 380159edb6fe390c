"""Suppression parsing, matching, and report rendering contracts."""

import json

import pytest

from repro.analysis.findings import (
    JSON_SCHEMA_VERSION,
    Finding,
    Report,
    Suppression,
    load_suppressions,
    parse_suppressions,
)
from repro.errors import ConfigurationError, ReproError


class TestParseSuppressions:
    def test_full_entry(self):
        (s,) = parse_suppressions(
            "REP004 src/repro/faults.py:120 injected crash\n"
        )
        assert s == Suppression(
            "REP004", "src/repro/faults.py", 120, "injected crash", 1
        )

    def test_entry_without_line_pin(self):
        (s,) = parse_suppressions("REP002 legacy/poker.py grandfathered\n")
        assert s.line is None
        assert s.reason == "grandfathered"

    def test_comments_and_blanks_skipped(self):
        assert parse_suppressions("# header\n\n   \n# more\n") == []

    def test_missing_reason_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="mandatory"):
            parse_suppressions("REP004 src/repro/faults.py:120\n")

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            parse_suppressions("E501 foo.py too long\n")

    def test_bad_line_number_rejected(self):
        with pytest.raises(ConfigurationError, match="bad line number"):
            parse_suppressions("REP001 foo.py:abc some reason\n")

    def test_configuration_error_is_both_taxonomies(self):
        # the transition contract: new typed error, old except-clauses
        # keep working
        with pytest.raises(ValueError):
            parse_suppressions("REP004 orphan.py\n")
        with pytest.raises(ReproError):
            parse_suppressions("REP004 orphan.py\n")

    def test_missing_file_is_empty(self, tmp_path):
        assert load_suppressions(tmp_path / "nope.txt") == []


class TestSuppressionMatching:
    FINDING = Finding("REP002", "src/repro/core/bulk.py", 189, "msg")

    def test_suffix_match(self):
        assert Suppression("REP002", "core/bulk.py", None, "r").matches(
            self.FINDING)

    def test_line_pin_must_agree(self):
        assert Suppression("REP002", "core/bulk.py", 189, "r").matches(
            self.FINDING)
        assert not Suppression("REP002", "core/bulk.py", 188, "r").matches(
            self.FINDING)

    def test_rule_must_agree(self):
        assert not Suppression("REP003", "core/bulk.py", None, "r").matches(
            self.FINDING)


class TestReport:
    def make_report(self):
        report = Report(root="src/repro", files_scanned=3, elapsed_s=0.12)
        report.findings.append(Finding("REP001", "a.py", 10, "inverted"))
        report.suppressed.append((
            Finding("REP004", "b.py", 20, "bare raise"),
            Suppression("REP004", "b.py", 20, "grandfathered"),
        ))
        report.unused_suppressions.append(
            Suppression("REP005", "gone.py", None, "stale entry")
        )
        return report

    def test_exit_code_tracks_active_findings(self):
        assert self.make_report().exit_code == 1
        assert Report(root="x").exit_code == 0

    def test_json_schema(self):
        doc = json.loads(self.make_report().to_json())
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert set(doc) == {
            "version", "root", "files_scanned", "elapsed_s",
            "findings", "unused_suppressions", "summary",
        }
        assert doc["summary"] == {
            "total": 2, "suppressed": 1, "active": 1}
        by_rule = {f["rule"]: f for f in doc["findings"]}
        assert set(by_rule["REP001"]) == {
            "rule", "path", "line", "message", "suppressed", "reason"}
        assert by_rule["REP001"]["suppressed"] is False
        assert by_rule["REP004"]["suppressed"] is True
        assert by_rule["REP004"]["reason"] == "grandfathered"
        assert doc["unused_suppressions"] == [{
            "rule": "REP005", "path": "gone.py", "line": None,
            "reason": "stale entry"}]

    def test_text_rendering_mentions_everything(self):
        text = self.make_report().to_text()
        assert "a.py:10: REP001 inverted" in text
        assert "[suppressed: grandfathered]" in text
        assert "unused suppression REP005 gone.py" in text
        assert "1 finding(s), 1 suppressed, 3 file(s) scanned" in text
