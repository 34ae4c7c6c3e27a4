#!/usr/bin/env python3
"""Aggregate BENCH_*.json artifacts into one BENCH_summary.json.

Walks every BENCH_*.json in the given directory (default: repo root). A row
is any JSON object with a "name"; every numeric field of a row is exported
as

    "<bench>/<section>/<name>/<field>" -> value

where <section> is the path of keys from the document root down to the row
("cases" is not spelled out, so a bench's top-level cases have no section)
and <field> is the bench's own field name (ns_per_op, mops_per_s,
us_per_put, read_p99_us, fault_injected, ...), so every key carries its
unit. The map lands under "headline" in BENCH_summary.json next to the
inputs. Perfetto trace artifacts (*.trace.json) and a stale summary itself
are skipped. Exits non-zero if no bench artifacts were found or one fails
to parse, so CI catches a silently broken emission pipeline.
"""
import json
import pathlib
import sys


def flatten(prefix, node, out):
    """Collects every numeric field of every named row under `prefix`."""
    if isinstance(node, dict):
        if "name" in node:
            for field, value in node.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    out[f"{prefix}/{node['name']}/{field}"] = value
            return
        for key, child in node.items():
            if isinstance(child, (dict, list)):
                flatten(prefix if key == "cases" else f"{prefix}/{key}",
                        child, out)
    elif isinstance(node, list):
        for child in node:
            flatten(prefix, child, out)


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(".")
    summary = {}
    inputs = []
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name == "BENCH_summary.json" or path.name.endswith(
            ".trace.json"
        ):
            continue
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            print(f"error: {path} is not valid JSON: {e}", file=sys.stderr)
            return 1
        flatten(doc.get("bench", path.stem.removeprefix("BENCH_")), doc,
                summary)
        inputs.append(path.name)
    if not inputs:
        print(f"error: no BENCH_*.json artifacts under {root}", file=sys.stderr)
        return 1
    out = root / "BENCH_summary.json"
    out.write_text(
        json.dumps({"inputs": inputs, "headline": summary}, indent=2,
                   sort_keys=True) + "\n"
    )
    print(f"{out}: {len(summary)} headline metrics from {len(inputs)} benches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
