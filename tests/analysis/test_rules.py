"""The fixture corpus contract for REP001–REP005.

Every rule ships with a *fail* fixture (the violation it exists to
catch) and a *pass* fixture (the sanctioned idiom it must not flag).
The fixtures live outside ``src/repro``, so the runner applies every
rule in strict mode — which is also what keeps them honest: a fail
fixture may only trip its own rule, never a neighbour's.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.layout import EXPECTED, SPEC, check_layout
from repro.analysis.lockorder import check_lock_order
from repro.analysis.rules import check_error_taxonomy, check_store_mutation
from repro.analysis.runner import RULES, analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"

ALL_RULES = sorted(RULES)


def run_on(path: Path):
    """Analyze one fixture in strict mode with no suppressions."""
    return analyze_paths([path], suppressions=[])


class TestFixtureCorpus:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_fail_fixture_fails_with_its_own_rule(self, rule):
        report = run_on(FIXTURES / f"{rule.lower()}_fail.py")
        assert report.exit_code == 1
        assert report.findings, f"{rule} fail fixture produced no findings"
        assert {f.rule for f in report.findings} == {rule}, (
            "fail fixtures must be cross-rule clean: "
            + "; ".join(f.render() for f in report.findings)
        )

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_pass_fixture_is_clean(self, rule):
        report = run_on(FIXTURES / f"{rule.lower()}_pass.py")
        assert report.exit_code == 0
        assert report.findings == []

    def test_corpus_directory_exits_nonzero(self):
        report = run_on(FIXTURES)
        assert report.exit_code == 1
        # every rule is represented by at least one finding
        assert {f.rule for f in report.findings} == set(ALL_RULES)
        assert report.files_scanned == 2 * len(ALL_RULES)

    def test_repo_is_clean_under_checked_in_suppressions(self):
        report = analyze_paths()  # default root + default suppressions
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        assert report.exit_code == 0
        assert report.unused_suppressions == []


class TestLockOrderDetails:
    def test_fail_fixture_reports_inversion_and_cycle(self):
        report = run_on(FIXTURES / "rep001_fail.py")
        messages = " | ".join(f.message for f in report.findings)
        assert "inversion" in messages
        assert "cyclic" in messages

    def test_helper_expansion_catches_indirect_inversion(self):
        src = (
            "class E:\n"
            "    def helper(self):\n"
            "        with self._dur_lock:\n"
            "            return 1\n"
            "    def caller(self):\n"
            "        with self._lock:\n"
            "            return self.helper()\n"
        )
        findings = check_lock_order(ast.parse(src), "inline")
        assert any(
            f.rule == "REP001" and "inversion" in f.message
            for f in findings
        )

    def test_progress_condition_aliases_lock(self):
        # `with self._progress:` *is* holding _lock: nesting _dur_lock
        # inside it inverts the canonical order.
        src = (
            "class E:\n"
            "    def bad(self):\n"
            "        with self._progress:\n"
            "            with self._dur_lock:\n"
            "                return 1\n"
        )
        findings = check_lock_order(ast.parse(src), "inline")
        assert any("'_dur_lock'" in f.message and "'_lock'" in f.message
                   for f in findings)

    def test_self_reacquisition_flagged(self):
        src = (
            "def f(self):\n"
            "    with self._lock:\n"
            "        with self._lock:\n"
            "            return 1\n"
        )
        findings = check_lock_order(ast.parse(src), "inline")
        assert any("re-acquired" in f.message for f in findings)


class TestLayoutDetails:
    def test_spec_is_the_64_bit_paper_layout(self):
        assert (SPEC.vertex_bits, SPEC.distance_bits, SPEC.count_bits) \
            == (23, 17, 24)
        assert SPEC.entry_bits == 64
        assert EXPECTED["HUB_SHIFT"] == 41
        assert EXPECTED["_DIST_MASK"] == (1 << 17) - 1

    def test_drift_reports_expected_value(self):
        findings = check_layout(ast.parse("HUB_SHIFT = 40\n"), "inline")
        assert len(findings) == 1
        assert "requires 41" in findings[0].message

    def test_derived_mask_checked_against_spec_not_import(self):
        # The import is seeded with the *spec* value, so a locally
        # re-derived mask is verified against the authoritative width.
        src = (
            "from repro.labeling.packing import DISTANCE_BITS\n"
            "_DIST_MASK = (1 << DISTANCE_BITS) - 1\n"
        )
        assert check_layout(ast.parse(src), "inline") == []

    def test_unverifiable_binding_is_flagged_not_trusted(self):
        findings = check_layout(
            ast.parse("UNREACHED = sentinel()\n"), "inline"
        )
        assert len(findings) == 1
        assert "not statically verifiable" in findings[0].message

    def test_layout_bearing_modules_agree_with_spec(self):
        root = Path(__file__).parents[2] / "src" / "repro"
        for rel in ("labeling/packing.py", "labeling/labelstore.py"):
            tree = ast.parse((root / rel).read_text())
            assert check_layout(tree, rel) == [], rel


class TestTaxonomyDetails:
    def test_swallow_scope_off_skips_handler_check(self):
        src = "def f(op):\n    try:\n        op()\n    except Exception:\n        pass\n"
        assert check_error_taxonomy(
            ast.parse(src), "inline", swallow_scope=False) == []
        assert len(check_error_taxonomy(
            ast.parse(src), "inline", swallow_scope=True)) == 1

    def test_classifier_call_routes_the_handler(self):
        src = (
            "def f(self, op):\n"
            "    try:\n"
            "        op()\n"
            "    except Exception as exc:\n"
            "        self._quarantine(op, exc)\n"
        )
        assert check_error_taxonomy(ast.parse(src), "inline") == []


class TestStoreMutationDetails:
    def test_labelstore_mode_requires_guard_before_write(self):
        src = (
            "class LabelStore:\n"
            "    def rogue(self, v, row):\n"
            "        self.packed[v] = row\n"
            "    def polite(self, v, row):\n"
            "        self._own(v)\n"
            "        self.packed[v] = row\n"
        )
        findings = check_store_mutation(
            ast.parse(src), "inline", labelstore_mode=True)
        assert [f.message.split(" writes")[0] for f in findings] \
            == ["LabelStore.rogue"]

    def test_real_labelstore_satisfies_its_own_protocol(self):
        path = Path(__file__).parents[2] / "src" / "repro" / \
            "labeling" / "labelstore.py"
        findings = check_store_mutation(
            ast.parse(path.read_text()), "labelstore.py",
            labelstore_mode=True)
        assert findings == []
