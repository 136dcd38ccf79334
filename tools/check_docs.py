#!/usr/bin/env python3
"""Docs gate: markdown links resolve, and the shared config/metrics structs
stay documented.

Three checks, all designed to fail on UNDOCUMENTED ADDITIONS rather than to
police prose:

1. Every relative markdown link in README.md, docs/*.md and
   bench/baselines/README.md must point at a file that exists (external
   http(s) links are not fetched — CI must not depend on the network).

2. Every field of `ClusterConfig` and `ClusterMetrics`
   (src/core/cluster_engine.h) must carry a `//` doc comment — trailing on
   the field's line, or on the line directly above it. These two structs
   are the contract every bench, example and test programs against, and
   docs/METRICS.md mirrors them; an uncommented field is a field the next
   reader cannot interpret. The controller policies ClusterConfig nests
   (`RepartitionConfig`, `RebalanceConfig`, `AdmissionConfig`) and the
   simulated router fleet's `FleetConfig` are held to the same rule, so a
   knob does not drop out of the gate by moving into its controller.

3. Every `ClusterMetrics` field is named exactly once in
   `ForEachMetricField` (same header), which drives the bench JSON, the CLI
   table and the determinism test — a field missing there would silently
   drop out of all three.

Usage: tools/check_docs.py [--root <repo root>]
"""

import argparse
import glob
import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADER = os.path.join("src", "core", "cluster_engine.h")
# Struct -> header whose fields must each carry a doc comment.
STRUCTS = {
    "ClusterConfig": HEADER,
    "ClusterMetrics": HEADER,
    "RepartitionConfig": os.path.join("src", "partition", "repartition.h"),
    "RebalanceConfig": os.path.join("src", "frontend", "splitter.h"),
    "AdmissionConfig": os.path.join("src", "frontend", "admission.h"),
    "FleetConfig": os.path.join("src", "frontend", "router_fleet.h"),
}

# A field declaration: ends in ';', is not a method/using/friend line.
FIELD_RE = re.compile(r"^\s*[A-Za-z_][\w:<>,\s*&\]\[]*\s+(\w+)\s*(=[^;]*|\{[^;]*\})?;")
# One entry of the ForEachMetricField list.
METRIC_ENTRY_RE = re.compile(r"^\s*GROUTING_METRIC_FIELD\((\w+)\);")


def check_links(root):
    failures = []
    files = [os.path.join(root, "README.md"),
             os.path.join(root, "bench", "baselines", "README.md")]
    files += sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True))
    checked = 0
    for path in files:
        if not os.path.exists(path):
            failures.append(f"{os.path.relpath(path, root)}: file missing")
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue  # pure in-page anchor
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
            checked += 1
            if not os.path.exists(resolved):
                failures.append(
                    f"{os.path.relpath(path, root)}: broken link -> {target}")
    print(f"link check: {checked} relative links across {len(files)} files")
    return failures


def struct_body(lines, name):
    """Lines of the struct's top-level body (nested method bodies elided)."""
    start = None
    for i, line in enumerate(lines):
        if re.match(rf"\s*struct {name}\b", line) and "{" in line:
            start = i
            break
    if start is None:
        return None
    depth = 0
    body = []
    for line in lines[start:]:
        opens, closes = line.count("{"), line.count("}")
        if depth == 1 and not (line.strip().startswith("}")):
            body.append(line)
        depth += opens - closes
        if depth == 0 and line is not lines[start]:
            break
    return body


def check_field_comments(root):
    failures = []
    fields = {name: [] for name in STRUCTS}
    for name, header in STRUCTS.items():
        with open(os.path.join(root, header), encoding="utf-8") as f:
            lines = f.read().splitlines()
        body = struct_body(lines, name)
        if body is None:
            failures.append(f"{header}: struct {name} not found")
            continue
        prev_was_comment = False
        depth = 0
        for line in body:
            stripped = line.strip()
            in_method_body = depth > 0
            depth += line.count("{") - line.count("}")
            if in_method_body or not stripped:
                prev_was_comment = False
                continue
            if stripped.startswith("//"):
                prev_was_comment = True
                continue
            m = FIELD_RE.match(line)
            if m is None or "(" in line.split("//")[0].rsplit(";", 1)[0].split("=")[0]:
                # method, constructor, using-decl, ... — not a field
                prev_was_comment = False
                continue
            fields[name].append(m.group(1))
            documented = prev_was_comment or "//" in line
            if not documented:
                failures.append(
                    f"{header}: {name}::{m.group(1)} has no // doc comment")
            prev_was_comment = False
    total = sum(len(v) for v in fields.values())
    print(f"doc-comment check: {total} fields across {len(STRUCTS)} structs")
    return failures, fields["ClusterMetrics"]


def check_metric_field_list(root, metric_fields):
    path = os.path.join(root, HEADER)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    start = text.find("void ForEachMetricField(")
    if start < 0:
        return [f"{HEADER}: ForEachMetricField not found"]
    body = text[start:text.find("\n}\n", start)].splitlines()
    listed = [m.group(1) for m in map(METRIC_ENTRY_RE.match, body) if m]
    failures = []
    for field in metric_fields:
        count = listed.count(field)
        if count != 1:
            failures.append(f"{HEADER}: ClusterMetrics::{field} appears {count} "
                            f"times in ForEachMetricField (want 1)")
    for entry in sorted(set(listed) - set(metric_fields)):
        failures.append(f"{HEADER}: ForEachMetricField names {entry}, "
                        f"which is not a ClusterMetrics field")
    print(f"metric-field-list check: {len(listed)} entries for "
          f"{len(metric_fields)} ClusterMetrics fields")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    args = ap.parse_args()

    failures = check_links(args.root)
    comment_failures, metric_fields = check_field_comments(args.root)
    failures += comment_failures + check_metric_field_list(args.root, metric_fields)
    if failures:
        print("\nDOCS GATE FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("docs gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
