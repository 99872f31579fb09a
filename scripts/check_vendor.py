#!/usr/bin/env python3
"""Every package under vendor/ is used: each is a normal, dev or build dependency of a workspace member outside
vendor/, directly or through other packages' normal and build dependencies (what building them compiles).

usage: check_vendor.py [<root>]      exits 1 naming each vendored package nothing reaches"""
import json, os, subprocess, sys

root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else '.')
meta = json.loads(subprocess.run(
    ['cargo', 'metadata', '--offline', '--format-version', '1', '--manifest-path', os.path.join(root, 'Cargo.toml')],
    check=True, capture_output=True, text=True).stdout)
vendor = os.path.join(root, 'vendor') + os.sep
where = {p['id']: os.path.dirname(p['manifest_path']) + os.sep for p in meta['packages']}
names = {p['id']: p['name'] for p in meta['packages']}
deps = {n['id']: n['deps'] for n in meta['resolve']['nodes']}


def kinds(dep):
    return {k['kind'] or 'normal' for k in dep['dep_kinds']}


roots = [m for m in meta['workspace_members'] if not where[m].startswith(vendor)]
reached = {d['pkg'] for m in roots for d in deps[m]}
todo = list(reached)
while todo:
    for d in deps.get(todo.pop(), []):
        if kinds(d) & {'normal', 'build'} and d['pkg'] not in reached:
            reached.add(d['pkg'])
            todo.append(d['pkg'])

vendored = sorted(i for i in where if where[i].startswith(vendor))
unused = [names[i] for i in vendored if i not in reached]
for name in unused:
    print(f'vendor/: package {name!r} is not a dependency of any workspace member outside vendor/', file=sys.stderr)
if unused:
    sys.exit(1)
print(f'vendor/: {len(vendored)} package(s), each a dependency of the workspace')
