#!/usr/bin/env python3
"""Project-invariant linter: the conventions no off-the-shelf tool knows.

The wire protocol, the snapshot format, and the CLI flag surface each
span several files that must stay in lockstep — an enum in a header, its
codec, its hostile-payload tests, its fuzzer entry, its byte-layout doc
row. PRs 5-8 each re-discovered one of these by hand; this linter turns
the drift into a test failure (it is registered as a ctest and a CI
step).

Enforced invariants:

  MessageType (src/server/protocol.h) — every enumerator must
    1. appear as a `case` in BOTH the MessageTypeName and the
       PeekMessageType switches in protocol.cc (name + wire-level
       accept: a frame type Peek doesn't know can never decode),
    2. have round-trip/hostile-payload coverage in
       tests/server_protocol_test.cc,
    3. [requests only, value < 128] have a mutation base entry in
       tests/server_fuzz_test.cc,
    4. have a `| <value> |` byte-layout row in docs/OPERATIONS.md.

  SectionType (src/io/snapshot.h) — every enumerator must
    1. have a `| <value> |` row in docs/FORMATS.md,
    2. be referenced as `SectionType::kX` somewhere under tests/
       (round-trip or compat-fixture coverage).

  Tool flags — every `--flag` in a tool's kUsageText must appear in
    tools/CMakeLists.txt, where the help-flag test loops assert it in
    the tool's --help output.

  Kernel layer (src/sketch/kernels/) — every KernelOps entry point
    (function-pointer field in kernels.h) must be named in
    tests/kernel_differential_test.cc, and every KernelTier enumerator
    (simd_dispatch.h) in tests/simd_dispatch_test.cc: a new kernel or
    tier cannot ship without joining the scalar-vs-vector differential
    harness that proves the tiers bit-identical.

  Sketch kinds (src/io/sketch_kinds.h) — no file under src/server/,
    src/io/ or tools/ may dispatch on a sketch kind by hand: no `case`
    on, or `==`/`!=` comparison with, a table row's SectionType, and no
    `==`/`!=` comparison with a row's `--sketch` name. Per-kind code
    visits the table (io::VisitSketchKind), so adding a kind stays one
    row. Exempt: the table itself and SectionTypeName's switch in
    src/io/snapshot.cc, which spells each section's name once.

  One opener (src/io/artifact.h) — no file under src/ or tools/ may call
    SnapshotReader::Open or MappedSnapshot::Open, except the container
    itself (src/io/snapshot.cc) and io::VisitArtifact's open step
    (src/io/artifact.cc). Every artifact is opened by VisitArtifact, so
    what a file holds is decided in one place.

Adding a new frame/section/flag without its paired artifacts fails this
script with a message naming every missing piece (see
docs/DEVELOPING.md for the add-a-frame walkthrough). Exit 0 clean,
1 on violations, 2 on parse trouble (treated as failure: if the linter
cannot find the enum it guards, the guard is gone).
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def read(rel):
    path = os.path.join(REPO_ROOT, rel)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        sys.exit("opthash_lint: cannot read %s: %s" % (rel, exc))


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def parse_enum(text, enum_name, rel):
    """Returns [(name, value)] for `enum class <enum_name>` in `text`."""
    match = re.search(
        r"enum\s+class\s+%s\s*(?::\s*\w+\s*)?\{(.*?)\}" % enum_name,
        strip_comments(text), re.S)
    if not match:
        sys.exit("opthash_lint: enum %s not found in %s" % (enum_name, rel))
    out = []
    value = -1
    for part in match.group(1).split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, _, raw = part.partition("=")
            value = int(raw.strip(), 0)
            name = name.strip()
        else:
            name = part
            value += 1
        out.append((name, value))
    if not out:
        sys.exit("opthash_lint: enum %s parsed empty in %s"
                 % (enum_name, rel))
    return out


def function_body(source, function_signature_regex, rel):
    """(start, end) offsets of the braced body of the function whose
    definition starts at `function_signature_regex` in `source`."""
    match = re.search(function_signature_regex, source)
    if not match:
        sys.exit("opthash_lint: function %r not found in %s"
                 % (function_signature_regex, rel))
    # Scan to the function's closing brace by depth counting.
    depth = 0
    start = source.index("{", match.start())
    for i in range(start, len(source)):
        if source[i] == "{":
            depth += 1
        elif source[i] == "}":
            depth -= 1
            if depth == 0:
                return start, i
    sys.exit("opthash_lint: unbalanced braces after %r"
             % function_signature_regex)


def switch_cases(source, function_signature_regex):
    """Enumerator names appearing as `case MessageType::kX:` inside the
    function whose definition starts at `function_signature_regex`."""
    start, end = function_body(source, function_signature_regex,
                               "protocol.cc")
    return set(re.findall(r"case\s+MessageType::(\w+)\s*:",
                          source[start:end]))


def doc_rows(text):
    """Set of integer first-column values of markdown table rows."""
    return set(int(v) for v in
               re.findall(r"^\|\s*`?(\d+)`?\s*\|", text, re.M))


def usage_flags(tool_source):
    """--flags inside a tool's kUsageText literal (the single source of
    truth for its documented surface)."""
    match = re.search(r"kUsageText\s*=\s*(.*?);", tool_source, re.S)
    if not match:
        return None
    flags = set(re.findall(r"--([a-z][a-z0-9-]*)", match.group(1)))
    # Synopsis placeholders, not real flags.
    return flags - {"flag", "help"}


def check_message_types(problems):
    header = read("src/server/protocol.h")
    impl = read("src/server/protocol.cc")
    protocol_test = read("tests/server_protocol_test.cc")
    fuzz_test = read("tests/server_fuzz_test.cc")
    operations = read("docs/OPERATIONS.md")
    rows = doc_rows(operations)

    name_cases = switch_cases(impl, r"MessageTypeName\s*\(")
    peek_cases = switch_cases(impl, r"PeekMessageType\s*\(")

    for name, value in parse_enum(header, "MessageType",
                                  "src/server/protocol.h"):
        stem = name[1:] if name.startswith("k") else name
        where = "MessageType::%s (= %d)" % (name, value)
        if name not in name_cases:
            problems.append(
                "%s: no `case` in protocol.cc MessageTypeName — the frame "
                "has no wire name" % where)
        if name not in peek_cases:
            problems.append(
                "%s: no `case` in protocol.cc PeekMessageType — the type "
                "byte is rejected before any decoder runs" % where)
        if ("MessageType::%s" % name) not in protocol_test \
                and stem not in protocol_test:
            problems.append(
                "%s: no round-trip/hostile-payload coverage in "
                "tests/server_protocol_test.cc" % where)
        if value < 128 and ("MessageType::%s" % name) not in fuzz_test \
                and stem not in fuzz_test:
            problems.append(
                "%s: request type missing from the mutation bases in "
                "tests/server_fuzz_test.cc" % where)
        if value not in rows:
            problems.append(
                "%s: no `| %d |` byte-layout row in docs/OPERATIONS.md "
                "wire tables" % (where, value))


def check_section_types(problems):
    header = read("src/io/snapshot.h")
    formats = read("docs/FORMATS.md")
    rows = doc_rows(formats)
    tests_dir = os.path.join(REPO_ROOT, "tests")
    test_blob = "".join(
        read(os.path.join("tests", f)) for f in sorted(os.listdir(tests_dir))
        if f.endswith((".cc", ".h")))

    for name, value in parse_enum(header, "SectionType",
                                  "src/io/snapshot.h"):
        where = "SectionType::%s (= %d)" % (name, value)
        if value not in rows:
            problems.append(
                "%s: no `| %d |` row in docs/FORMATS.md (section-type "
                "table + payload spec)" % (where, value))
        # Qualified match: a bare `kRandomForest` could be ClassifierKind.
        if ("SectionType::%s" % name) not in test_blob:
            problems.append(
                "%s: never referenced under tests/ — add round-trip or "
                "compat-fixture coverage naming it" % where)


def check_tool_flags(problems):
    cmake = read("tools/CMakeLists.txt")
    for tool in ("opthash_cli", "opthash_serve", "opthash_client"):
        flags = usage_flags(read("tools/%s.cc" % tool))
        if flags is None:
            problems.append("%s.cc: kUsageText literal not found" % tool)
            continue
        for flag in sorted(flags):
            if not re.search(r"\b%s\b" % re.escape(flag), cmake):
                problems.append(
                    "%s --%s: documented in kUsageText but absent from "
                    "tools/CMakeLists.txt — add it to the tool's "
                    "help-flag test list" % (tool, flag))


def check_kernel_entry_points(problems):
    kernels_header = read("src/sketch/kernels/kernels.h")
    dispatch_header = read("src/sketch/kernels/simd_dispatch.h")
    differential = read("tests/kernel_differential_test.cc")
    dispatch_test = read("tests/simd_dispatch_test.cc")

    ops_match = re.search(r"struct\s+KernelOps\s*\{(.*?)\};",
                          strip_comments(kernels_header), re.S)
    if not ops_match:
        sys.exit("opthash_lint: struct KernelOps not found in "
                 "src/sketch/kernels/kernels.h")
    fields = re.findall(r"\(\s*\*\s*(\w+)\s*\)\s*\(", ops_match.group(1))
    if not fields:
        sys.exit("opthash_lint: KernelOps parsed with no function-pointer "
                 "fields — the kernel guard is gone")
    for field in fields:
        if not re.search(r"\b%s\b" % re.escape(field), differential):
            problems.append(
                "KernelOps::%s: kernel entry point never exercised in "
                "tests/kernel_differential_test.cc — every kernel needs a "
                "per-tier differential case proving bit-identity" % field)

    for name, _ in parse_enum(dispatch_header, "KernelTier",
                              "src/sketch/kernels/simd_dispatch.h"):
        if not re.search(r"\b%s\b" % re.escape(name), dispatch_test):
            problems.append(
                "KernelTier::%s: enumerator never named in "
                "tests/simd_dispatch_test.cc — a tier must be coverable by "
                "the force/availability/naming suite" % name)


def sketch_kind_rows():
    """[(cli name, SectionType enumerator)] of the sketch-kind table."""
    rows = re.findall(
        r'SketchKindRow<[^>]*>\s*\{\s*\{\s*"([a-z0-9]+)"\s*,\s*'
        r"SectionType::(\w+)",
        strip_comments(read("src/io/sketch_kinds.h")))
    if not rows:
        sys.exit("opthash_lint: no SketchKindRow parsed from "
                 "src/io/sketch_kinds.h — the kind-dispatch guard is gone")
    return rows


def source_files(tops):
    """(rel, text) of every .cc/.h under `tops`, comments blanked out line
    by line so that reported line numbers stay true."""
    for top in tops:
        for dirpath, _, files in sorted(os.walk(os.path.join(REPO_ROOT,
                                                             top))):
            for name in sorted(files):
                if not name.endswith((".cc", ".h")):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name),
                                      REPO_ROOT)
                yield rel, re.sub(r"/\*.*?\*/|//[^\n]*",
                                  lambda m: "\n" * m.group(0).count("\n"),
                                  read(rel), flags=re.S)


def check_sketch_kind_dispatch(problems):
    rows = sketch_kind_rows()
    names = "|".join(re.escape(name) for name, _ in rows)
    sections = "|".join(re.escape(section) for _, section in rows)
    patterns = (
        (r"\bcase\s+(?:io::)?SectionType::(%s)\b" % sections,
         "`case` on SectionType::%s"),
        (r"[=!]=\s*(?:io::)?SectionType::(%s)\b" % sections,
         "comparison with SectionType::%s"),
        (r"\bSectionType::(%s)\s*[=!]=" % sections,
         "comparison with SectionType::%s"),
        (r'[=!]=\s*"(%s)"' % names, 'comparison with kind name "%s"'),
        (r'"(%s)"\s*[=!]=' % names, 'comparison with kind name "%s"'),
    )
    for rel, text in source_files(("src/server", "src/io", "tools")):
        if rel == "src/io/sketch_kinds.h":
            continue
        if rel == "src/io/snapshot.cc":
            # Blank the exempt function body out line by line too.
            start, end = function_body(
                text, r"const char\*\s*SectionTypeName\(", rel)
            text = (text[:start] + "\n" * text.count("\n", start, end)
                    + text[end:])
        for pattern, what in patterns:
            for match in re.finditer(pattern, text):
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    "%s:%d: hand-written sketch-kind dispatch (%s) "
                    "— add a column to the sketch-kind table "
                    "(src/io/sketch_kinds.h) and visit it with "
                    "io::VisitSketchKind instead"
                    % (rel, line, what % match.group(1)))


def check_single_opener(problems):
    exempt = ("src/io/snapshot.cc", "src/io/artifact.cc")
    for rel, text in source_files(("src", "tools")):
        if rel in exempt:
            continue
        for match in re.finditer(
                r"\b(SnapshotReader|MappedSnapshot)::Open\s*\(", text):
            line = text.count("\n", 0, match.start()) + 1
            problems.append(
                "%s:%d: %s::Open outside the one opener — open artifacts "
                "with io::VisitArtifact (src/io/artifact.h)"
                % (rel, line, match.group(1)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    problems = []
    check_message_types(problems)
    check_section_types(problems)
    check_tool_flags(problems)
    check_kernel_entry_points(problems)
    check_sketch_kind_dispatch(problems)
    check_single_opener(problems)
    if problems:
        print("opthash_lint: %d invariant violation(s)\n" % len(problems))
        for p in problems:
            print("  * %s" % p)
        print("\nThe add-a-frame/section/flag checklists live in "
              "docs/DEVELOPING.md.")
        return 1
    print("opthash_lint: all project invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
