"""Every numbered section a document, docstring, test or CI file cites
exists, and is not a retired stub.

A citation is ``DOC.md §N`` or ``DOC §N`` (``DOC`` an upper-case
document name at the repo root or under ``docs/``), optionally
followed by more sections (``§6, §8 and §10``, ``§1–§2``).  It
resolves when ``DOC.md`` has a ``## N.`` heading that is not marked
"(Retired)".
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The project's own documents at the repo root; the paper abstracts
#: and snippet collections there quote outside sources.
ROOT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md",
             "ROADMAP.md")
SCANNED_DIRS = ("docs", "src", "tests", ".github", ".claude")
SCANNED_SUFFIXES = {".md", ".py", ".yml"}

_CITATION = re.compile(
    r"\b(?P<doc>[A-Z][A-Z_]*[A-Z])(?:\.md)?"
    r"(?P<refs>\s+§\s?\d+[a-z]?(?:\s*(?:,|and|–|-|/)\s*§\s?\d+[a-z]?)*)")
_SECTION = re.compile(r"§\s?(\d+[a-z]?)")
_HEADING = re.compile(r"^## (\d+[a-z]?)\. (.*)$", re.MULTILINE)


def _documents():
    docs = {}
    for path in [*ROOT.glob("*.md"), *(ROOT / "docs").glob("*.md")]:
        docs.setdefault(path.stem, path)
    return docs


def _headings(path):
    return {m.group(1): m.group(2)
            for m in _HEADING.finditer(path.read_text(encoding="utf-8"))}


def _scanned_files():
    for name in ROOT_DOCS:
        if (ROOT / name).exists():
            yield ROOT / name
    for top in SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in SCANNED_SUFFIXES \
                    and "__pycache__" not in path.parts:
                yield path


def bad_citations(files, documents, root=ROOT):
    """``(file:line, citation, reason)`` for every citation in ``files``
    that does not land on a live numbered section of ``documents``
    (document name -> path); ``file`` is relative to ``root``."""
    headings = {}
    bad = []
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        for m in _CITATION.finditer(text):
            doc = m.group("doc")
            if doc not in documents:
                continue
            if doc not in headings:
                headings[doc] = _headings(documents[doc])
            line = text.count("\n", 0, m.start()) + 1
            where = f"{path.relative_to(root)}:{line}"
            for n in _SECTION.findall(m.group("refs")):
                title = headings[doc].get(n)
                if title is None:
                    bad.append((where, f"{doc} §{n}", "no such section"))
                elif "(Retired)" in title:
                    bad.append((where, f"{doc} §{n}", "retired section"))
    return bad


def test_every_section_citation_resolves():
    documents = _documents()
    assert {"PERFORMANCE", "SHARDING", "DESIGN"} <= set(documents)
    bad = bad_citations(list(_scanned_files()), documents)
    assert not bad, "\n".join(f"{w}: {c} ({r})" for w, c, r in bad)


def test_a_missing_or_retired_section_is_caught(tmp_path):
    doc = tmp_path / "GUIDE.md"
    doc.write_text("## 1. Live\n\n## 2. (Retired) Gone\n", encoding="utf-8")
    cites = tmp_path / "notes.md"
    cites.write_text("See GUIDE.md §1, §2 and\nGUIDE §3.\n",
                     encoding="utf-8")
    bad = bad_citations([cites], {"GUIDE": doc}, root=tmp_path)
    assert bad == [("notes.md:1", "GUIDE §2", "retired section"),
                   ("notes.md:2", "GUIDE §3", "no such section")]
