#!/usr/bin/env python3
"""Non-test, non-comment, non-blank Rust lines under crates/*/src (crates/bench excluded), and the tokens on them.

Everything from a file's first `#[cfg(test)]` + `mod ...` to its end is cut off (test modules close the file here);
lines that are blank or start with `//` (incl. `///`, `//!`) are dropped. Tokens (identifiers, literals, one per
punctuation character) are the density-neutral size: reflowing or condensing code moves lines, not tokens.

usage: count_code_lines.py <root> [v]      prints `<lines> <tokens>`; with `v`, one `<lines> <tokens> <file>` row first"""
import glob, os, re, sys

TOKEN = re.compile(r'[A-Za-z_][A-Za-z_0-9]*|\d[\w.]*|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|[^\sA-Za-z_0-9]')
root = sys.argv[1]
total = [0, 0]
for path in sorted(glob.glob(os.path.join(root, 'crates/*/src/**/*.rs'), recursive=True)):
    rel = os.path.relpath(path, root)
    if rel.startswith('crates/bench/'):
        continue
    lines = open(path).read().split('\n')
    n = t = 0
    for i, line in enumerate(lines):
        l = line.strip()
        if l == '#[cfg(test)]' and i + 1 < len(lines) and lines[i + 1].strip().startswith('mod '):
            break  # test modules close the file in this repo
        if l and not l.startswith('//'):
            n += 1
            t += len(TOKEN.findall(l.split(' // ')[0]))
    if len(sys.argv) > 2:
        print(n, t, rel)
    total[0] += n
    total[1] += t
print(*total)
