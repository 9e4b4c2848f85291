#!/usr/bin/env python3
"""Docs gate: link integrity + serving-options and fail-point drift guards.

Three checks, all hard failures (run as the `docs_check` ctest entry and
in the `docs` CI job):

1. **Link check.** Every relative markdown link in README.md and
   docs/**.md must resolve to an existing file, and every fragment
   (`file.md#anchor` or in-page `#anchor`) must match a heading in the
   target file under GitHub's anchor rules (lowercase, punctuation
   stripped, spaces to hyphens). External links (http/https/mailto) are
   not fetched — CI must not depend on the network.

2. **Options drift guard.** docs/serving.md documents every
   `Options` field of the serving tier in per-struct tables whose first
   column is the backticked field name, under headings naming the
   struct (e.g. `### QueryEngine::Options`). The guard parses the real
   structs out of the headers and fails in BOTH directions: a header
   field missing from the doc table (undocumented option), or a doc row
   naming a field the struct no longer has (stale doc). Renaming or
   adding an option without touching docs/serving.md fails CI. A struct
   that inherits fields (`BasicQueryEngine::Options` takes the serving
   policy's from `ServingPolicy::Config`) is checked for its own fields;
   the base struct has its own entry and table. So is
   `ShardedSnapshotStore::Options`, whose base `StoreOptions` (the
   settings both stores share, a namespace-scope struct) has its own
   entry and table.

3. **Fail-point drift guard.** docs/testing.md's "Fault injection"
   section names every registered fail point in backticks. The guard
   compares the backticked `word.word` names of that section with
   `failpoints::kAllPoints` in src/support/FailPoint.h and, like the
   options guard, fails in both directions: a registered point the
   section does not name, or a named point the registry lacks.

Exit status: 0 = clean, 1 = findings, 2 = usage/environment error.

Usage:
  check_docs.py [--root REPO_ROOT]
"""

import argparse
import os
import re
import sys

# Struct -> (header path, doc heading fragment). A doc heading matches if
# it contains the struct name (so "### `BasicQueryEngine::Options`" works).
OPTION_STRUCTS = {
    "BasicQueryEngine::Options": "src/service/QueryEngine.h",
    "ServingPolicy::Config": "src/service/ServingPolicy.h",
    "StoreOptions": "src/service/SnapshotStore.h",
    "ShardedSnapshotStore::Options": "src/service/SnapshotStore.h",
}

SERVING_DOC = "docs/serving.md"
LINK_ROOTS = ["README.md", "docs"]

FAILPOINT_HEADER = "src/support/FailPoint.h"
TESTING_DOC = "docs/testing.md"
FAILPOINT_SECTION = "Fault injection"
FAILPOINT_NAME_RE = re.compile(r"[a-z]+\.[a-z]+")

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
FIELD_RE = re.compile(
    r"^\s+(?:[A-Za-z_][A-Za-z0-9_:<>\s,\*]*?)\s([A-Z][A-Za-z0-9]*)\s*(?:=[^;]*)?;"
)


def github_anchor(heading):
    """GitHub's heading -> fragment rule: strip markup, lowercase, drop
    punctuation, spaces to hyphens. Underscores are word characters on
    GitHub (`BENCH_service.json` -> `bench_servicejson`), so only
    backtick/star markup is stripped."""
    text = re.sub(r"[`*]", "", heading).strip()
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root):
    out = []
    for entry in LINK_ROOTS:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for dirpath, _, names in os.walk(path):
                out.extend(os.path.join(dirpath, n) for n in sorted(names)
                           if n.endswith(".md"))
    return out


def anchors_of(path, cache):
    if path not in cache:
        anchors = set()
        with open(path) as f:
            in_fence = False
            for line in f:
                if line.lstrip().startswith("```"):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                m = HEADING_RE.match(line)
                if m:
                    anchors.add(github_anchor(m.group(1)))
        cache[path] = anchors
    return cache[path]


def check_links(root):
    """Returns a list of 'file:line: problem' strings."""
    problems = []
    cache = {}
    for md in markdown_files(root):
        with open(md) as f:
            in_fence = False
            for lineno, line in enumerate(f, 1):
                if line.lstrip().startswith("```"):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for target in LINK_RE.findall(line):
                    if target.startswith(("http://", "https://", "mailto:")):
                        continue
                    rel = os.path.relpath(md, root)
                    path_part, _, frag = target.partition("#")
                    if path_part:
                        dest = os.path.normpath(
                            os.path.join(os.path.dirname(md), path_part))
                        if os.path.relpath(dest, root).startswith(".."):
                            # Escapes the checkout (e.g. the CI badge's
                            # ../../actions/... path, which only exists on
                            # the forge) — nothing on disk to validate.
                            continue
                        if not os.path.exists(dest):
                            problems.append(
                                f"{rel}:{lineno}: broken link: {target}")
                            continue
                    else:
                        dest = md  # in-page fragment
                    if frag and dest.endswith(".md"):
                        if frag not in anchors_of(dest, cache):
                            problems.append(
                                f"{rel}:{lineno}: missing anchor: {target}")
    return problems


def header_fields(root, struct):
    """Fields of `struct` parsed from its header: the `struct Options`
    block (with or without a base clause) inside the named class, or a
    namespace-scope struct when the name has no `::`."""
    cls, _, inner = struct.partition("::")
    path = os.path.join(root, OPTION_STRUCTS[struct])
    fields = []
    with open(path) as f:
        text = f.read()
    sub = text
    if inner:
        cls_m = re.search(rf"^class {re.escape(cls)}\b", text, re.M)
        if not cls_m:
            raise RuntimeError(f"{path}: class {cls} not found")
        sub = text[cls_m.start():]
    else:
        inner = cls
    opt_m = re.search(rf"^\s*struct {re.escape(inner)}\b[^{{;]*{{", sub,
                      re.M)
    if not opt_m:
        raise RuntimeError(f"{path}: struct {struct} not found")
    depth = 0
    for line in sub[opt_m.start():].splitlines():
        depth += line.count("{") - line.count("}")
        if depth <= 0 and "{" not in line:
            break
        m = FIELD_RE.match(line)
        # Skip the GCC-12 `Options() {}` workaround and method-looking
        # lines; fields always end in `;` and start with a type.
        if m and "(" not in line.split(m.group(1))[0]:
            fields.append(m.group(1))
    if not fields:
        raise RuntimeError(f"{path}: no fields parsed for {struct}")
    return fields


def doc_tables(root):
    """Parses docs/serving.md into {struct: [documented field names]},
    keyed by the nearest preceding heading that names an Options struct."""
    path = os.path.join(root, SERVING_DOC)
    tables = {}
    current = None
    with open(path) as f:
        for line in f:
            m = HEADING_RE.match(line)
            if m:
                heading = m.group(1).replace("`", "")
                # Longest name first, so a heading naming a longer
                # struct is never claimed by a shorter one it contains.
                current = next((s for s in sorted(OPTION_STRUCTS,
                                                  key=len, reverse=True)
                                if s in heading), None)
                continue
            if current and line.lstrip().startswith("|"):
                cell = line.split("|")[1].strip()
                fm = re.fullmatch(r"`([A-Za-z][A-Za-z0-9]*)`", cell)
                if fm:
                    tables.setdefault(current, []).append(fm.group(1))
    return tables


def check_options_drift(root):
    problems = []
    documented = doc_tables(root)
    for struct in OPTION_STRUCTS:
        try:
            real = header_fields(root, struct)
        except RuntimeError as e:
            problems.append(str(e))
            continue
        doc = documented.get(struct, [])
        if not doc:
            problems.append(f"{SERVING_DOC}: no options table found for "
                            f"{struct}")
            continue
        for f in real:
            if f not in doc:
                problems.append(f"{SERVING_DOC}: {struct}::{f} exists in "
                                f"{OPTION_STRUCTS[struct]} but is not in "
                                f"the doc table")
        for f in doc:
            if f not in real:
                problems.append(f"{SERVING_DOC}: documents {struct}::{f}, "
                                f"which {OPTION_STRUCTS[struct]} does not "
                                f"have")
    return problems


def registered_fail_points(root):
    """The names in `kAllPoints[] = { ... }`, in declaration order."""
    path = os.path.join(root, FAILPOINT_HEADER)
    with open(path) as f:
        text = f.read()
    m = re.search(r"kAllPoints\[\]\s*=\s*\{(?P<body>[^}]*)\}", text)
    if not m:
        raise RuntimeError(f"{FAILPOINT_HEADER}: kAllPoints not found")
    return re.findall(r'"([^"]+)"', m.group("body"))


def documented_fail_points(root):
    """Backticked fail-point-shaped names in the "Fault injection"
    section of docs/testing.md (up to the next heading of any level)."""
    path = os.path.join(root, TESTING_DOC)
    names = []
    in_section = False
    with open(path) as f:
        for line in f:
            m = HEADING_RE.match(line)
            if m:
                in_section = m.group(1).strip() == FAILPOINT_SECTION
                continue
            if in_section:
                names += [n for n in re.findall(r"`([^`]+)`", line)
                          if FAILPOINT_NAME_RE.fullmatch(n)]
    return names


def check_fail_point_drift(root):
    try:
        real = registered_fail_points(root)
    except (OSError, RuntimeError) as e:
        return [str(e)]
    doc = documented_fail_points(root)
    if not doc:
        return [f"{TESTING_DOC}: no fail-point names found in the "
                f"\"{FAILPOINT_SECTION}\" section"]
    problems = []
    for name in real:
        if name not in doc:
            problems.append(f"{TESTING_DOC}: fail point {name} is in "
                            f"{FAILPOINT_HEADER} but not in the "
                            f"\"{FAILPOINT_SECTION}\" section")
    for name in doc:
        if name not in real:
            problems.append(f"{TESTING_DOC}: names fail point {name}, which "
                            f"{FAILPOINT_HEADER} does not register")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: the script's parent)")
    args = ap.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "README.md")):
        print(f"check_docs: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    problems = (check_links(root) + check_options_drift(root) +
                check_fail_point_drift(root))
    for p in problems:
        print(p)
    n_files = len(markdown_files(root))
    if problems:
        print(f"check_docs: {len(problems)} problem(s) across {n_files} "
              f"markdown file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({n_files} markdown files, "
          f"{len(OPTION_STRUCTS)} options structs and "
          f"{len(registered_fail_points(root))} fail points in sync)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
