#!/usr/bin/env python3
"""Compare the machine code of matching functions in two binaries.

Disassembles both binaries with `objdump -d -C`, picks every function whose
demangled name matches a regular expression, and prints for each one its
instruction count in both binaries and a unified diff of the two listings
after address normalisation. Use it to check that a change to shared
templates left an engine it does not touch compiled exactly as before, and
to find which instantiations a GCC inlining-budget shift moved.

Normalisation drops what moves when unrelated code changes size: the
address column, the absolute address before each `<symbol+offset>` target
(branches, calls, RIP-relative comments), and RIP-relative displacements.
Branch targets inside the function keep their offset from its start, and
its own name in them is shortened to `<+0x..>`. Trailing alignment padding
(nop, int3) is not counted or compared.

Exit status: 0 = every matching function is in both binaries and identical,
1 = some function differs or is in only one binary, 2 = usage error or no
function matched. At most 200 diff lines are printed per function, and
printed lines are clipped at 200 characters; the comparison uses the full
text.

Usage:
  codegen_diff.py OLD_BINARY NEW_BINARY REGEX

Example (the fresh eager SSSP engine of the perfbench binary):
  codegen_diff.py old/perfbench new/perfbench \\
      'eagerOrderedProcess.*ssspFresh<graphit::Graph>'
"""

import argparse
import difflib
import re
import subprocess
import sys

HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\s+(.*)$")
# "call   4a2f0 <foo+0x10>" -> "call   <foo+0x10>"; the same for the
# "# 5c1e8 <bar>" comment objdump adds to RIP-relative operands.
ABSOLUTE_TARGET = re.compile(r"\b[0-9a-f]+ <")
RIP_DISPLACEMENT = re.compile(r"-?0x[0-9a-f]+\(%rip\)")
PADDING = re.compile(r"^(nop|int3|xchg\s+%ax,%ax|data16|cs nopw)")
MAX_DIFF_LINES = 200
WIDTH = 200


def disassemble(binary):
    """Returns [(name, [normalised instruction, ...]), ...] in file order."""
    try:
        out = subprocess.run(
            ["objdump", "-d", "-C", "-w", "--no-show-raw-insn", binary],
            check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("codegen_diff: objdump failed on %s: %s" % (binary, e))
    functions = []
    for line in out.splitlines():
        m = HEADER.match(line)
        if m:
            functions.append((m.group(1), []))
            continue
        m = INSTRUCTION.match(line)
        if m and functions:
            functions[-1][1].append(m.group(1).rstrip())
    return [(name, normalise(name, body)) for name, body in functions]


def normalise(name, body):
    own = "<" + name + "+"
    lines = []
    for insn in body:
        insn = ABSOLUTE_TARGET.sub("<", insn)
        insn = RIP_DISPLACEMENT.sub("X(%rip)", insn)
        insn = insn.replace(own, "<+")
        lines.append(re.sub(r"\s+", " ", insn))
    while lines and PADDING.match(lines[-1]):
        lines.pop()
    return lines


def select(functions, pattern):
    """Matching functions keyed by name; a repeated name (a local symbol of
    several translation units) gets a #2, #3, ... suffix in file order."""
    picked = {}
    for name, body in functions:
        if not pattern.search(name):
            continue
        key, n = name, 1
        while key in picked:
            n += 1
            key = "%s #%d" % (name, n)
        picked[key] = body
    return picked


def size(body):
    return "-" if body is None else str(len(body))


def clip(text):
    return text if len(text) <= WIDTH else text[:WIDTH - 3] + "..."


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", help="binary built from the parent commit")
    ap.add_argument("new", help="binary built from the change")
    ap.add_argument("regex", help="regular expression searched in each "
                    "function's demangled name")
    args = ap.parse_args()
    try:
        pattern = re.compile(args.regex)
    except re.error as e:
        print("codegen_diff: bad regex: %s" % e, file=sys.stderr)
        return 2

    old = select(disassemble(args.old), pattern)
    new = select(disassemble(args.new), pattern)
    keys = list(old) + [k for k in new if k not in old]
    if not keys:
        print("codegen_diff: no function matches %r" % args.regex,
              file=sys.stderr)
        return 2

    same = differ = missing = 0
    for key in keys:
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            status = "only in " + ("new" if a is None else "old")
            missing += 1
        elif a == b:
            status = "identical"
            same += 1
        else:
            status = "differs"
            differ += 1
        print("== %s" % clip(key))
        print("   instructions: old %s, new %s  [%s]"
              % (size(a), size(b), status))
        if status != "differs":
            continue
        diff = list(difflib.unified_diff(a, b, "old", "new", lineterm=""))
        for line in diff[:MAX_DIFF_LINES]:
            print("   " + clip(line))
        if len(diff) > MAX_DIFF_LINES:
            print("   ... %d more diff lines" % (len(diff) - MAX_DIFF_LINES))

    print("%d matched: %d identical, %d differ, %d in one binary only"
          % (len(keys), same, differ, missing))
    return 0 if differ == 0 and missing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
