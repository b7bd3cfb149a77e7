"""Docs suite invariants: links resolve, the catalog stays in sync.

The markdown link check also runs as a CI docs-job gate
(``scripts/check_docs_links.py``); running it in tier-1 means a broken
link fails locally before it fails in CI.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "scripts"))

from check_docs_links import check, doc_files, github_slug  # noqa: E402


def test_docs_suite_exists():
    for name in (
        "api.md", "architecture.md", "experiments.md", "engines.md",
        "benchmarks.md",
    ):
        assert (ROOT / "docs" / name).is_file(), f"docs/{name} missing"


def test_readme_links_docs_suite():
    readme = (ROOT / "README.md").read_text()
    for name in (
        "docs/api.md",
        "docs/architecture.md",
        "docs/engines.md",
        "docs/experiments.md",
        "docs/benchmarks.md",
    ):
        assert name in readme, f"README does not link {name}"


def test_no_broken_intra_repo_links():
    broken = check(ROOT)
    assert not broken, "broken markdown links:\n" + "\n".join(broken)


def test_link_checker_sees_the_docs():
    names = {p.name for p in doc_files(ROOT)}
    assert {
        "README.md", "api.md", "architecture.md", "experiments.md",
        "engines.md", "benchmarks.md",
    } <= names


def test_slugging_matches_github_conventions():
    assert github_slug("Life of a grid cell") == "life-of-a-grid-cell"
    assert (
        github_slug("Batched multi-instance execution (the `batch` strategy)")
        == "batched-multi-instance-execution-the-batch-strategy"
    )


def test_experiment_catalog_covers_all_modules():
    """Every experiment module appears in docs/experiments.md."""
    catalog = (ROOT / "docs" / "experiments.md").read_text()
    modules = sorted(
        p.stem
        for p in (ROOT / "src" / "repro" / "experiments").glob("e*.py")
    )
    assert len(modules) == 12
    for module in modules:
        assert module in catalog, f"{module} missing from docs/experiments.md"


def test_engines_doc_covers_batched_mode():
    engines = (ROOT / "docs" / "engines.md").read_text()
    for needle in (
        "Choosing an engine",
        "Stacking eligibility",
        "lemma310",
        "stackable",
        "strategy=\"batch\"",
        "ragged",
        "local_n_of",
        "node_offsets",
        "When batching helps",
    ):
        assert needle in engines, f"docs/engines.md lost section: {needle!r}"


def test_benchmarks_doc_catalogs_every_artifact():
    """docs/benchmarks.md covers each BENCH_*.json the repo produces."""
    catalog = (ROOT / "docs" / "benchmarks.md").read_text()
    producers = (ROOT / "scripts" / "run_experiments.py").read_text()
    produced = set(re.findall(r"BENCH_\w+\.json", producers))
    assert {"BENCH_engines.json", "BENCH_batched.json", "BENCH_ragged.json"} <= produced
    for artifact in sorted(produced):
        assert artifact in catalog, f"{artifact} missing from docs/benchmarks.md"
    # Committed reference artifacts are cataloged too.
    tracked = subprocess.run(
        ["git", "ls-files", "BENCH_*.json"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    ).stdout.split()
    for artifact in tracked:
        assert artifact in catalog, f"committed {artifact} not cataloged"


def test_no_tracked_pycache(tmp_path):
    """PR 3 removed committed bytecode; .gitignore must keep it out."""
    gitignore = (ROOT / ".gitignore").read_text()
    assert "__pycache__/" in gitignore
    tracked = subprocess.run(
        ["git", "ls-files", "*.pyc"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert tracked.stdout.strip() == "", "compiled bytecode is tracked again"


def test_api_doc_covers_the_surface():
    """docs/api.md documents the spec fields, lifecycle and streaming."""
    api_doc = (ROOT / "docs" / "api.md").read_text()
    for needle in (
        "ProgramSpec",
        "Builder lifecycle",
        "Streaming semantics",
        "Deprecation policy",
        "batch_factory",
        "stream()",
    ):
        assert needle in api_doc, f"docs/api.md lost section: {needle!r}"


def ledger_stages() -> set:
    """Every stage name that ``src/`` passes to ``charge`` or ``simulate``.

    A stage that a function takes as a parameter is read from the string
    literals its callers in the same module pass for that parameter.
    """
    stages = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        calls = [c for c in ast.walk(tree) if isinstance(c, ast.Call)]
        for call in calls:
            if not (isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("charge", "simulate")):
                continue
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            stage = call.args[0]
            if isinstance(stage, ast.Constant):
                stages.add(stage.value)
                continue
            assert isinstance(stage, ast.Name), where
            # ast.walk goes breadth first, so the last match is the innermost.
            owners = [f for f in functions
                      if stage.id in [a.arg for a in f.args.args]
                      and any(node is call for node in ast.walk(f))]
            assert owners, where
            owner = owners[-1]
            index = [a.arg for a in owner.args.args].index(stage.id)
            passed = []
            for c in calls:
                if isinstance(c.func, ast.Name) and c.func.id == owner.name:
                    keywords = {k.arg: k.value for k in c.keywords}
                    passed.append(c.args[index] if index < len(c.args)
                                  else keywords.get(stage.id))
            assert passed and all(isinstance(a, ast.Constant) for a in passed), where
            stages.update(a.value for a in passed)
    return stages


def test_charged_stages_table_lists_every_ledger_stage():
    """docs/architecture.md's "Charged stages" table has one row per stage
    name in the code, and no other."""
    doc = (ROOT / "docs" / "architecture.md").read_text()
    section = doc.split("\n## Charged stages\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(rows) == len(set(rows)), "a stage has two rows"
    stages = ledger_stages()
    assert {"part2-rounding", "part3-rounding", "water-filling-lp"} <= stages
    assert set(rows) == stages


def test_no_file_cites_the_missing_design_doc():
    """The repository has no design document of that name: code, README.md
    and every document below the root cite docs/experiments.md or the
    "Charged stages" table instead.  The root planning and history
    documents keep the name where they record the old citations."""
    missing = "DESIGN" + ".md"  # spelled apart so this file does not cite it
    tracked = subprocess.run(
        ["git", "ls-files", "*.py", "*.md"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    checked = [f for f in tracked if f.endswith(".py") or "/" in f or f == "README.md"]
    assert "docs/architecture.md" in checked
    citing = [f for f in checked if missing in (ROOT / f).read_text()]
    assert not citing, f"{missing} cited by {citing}"
