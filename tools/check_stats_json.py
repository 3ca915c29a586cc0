#!/usr/bin/env python3
"""Validates a ProbKB execution-stats JSON document or a span-tree dump.

Usage: check_stats_json.py [--require-spill] STATS_JSON [TRACE_JSON]
       check_stats_json.py --spans SPANS_JSONL

Accepts either a bare StatsRegistry document (the probkb CLI's
``--stats_json`` output) or the table3_grounding wrapper
``{"bench": ..., "systems": {name: <registry>, ...}}``.

Checks per registry:
  * each statement's operator list, recorded in post-order with
    ``num_children``, reconstructs into a well-formed forest;
  * along every pipeline edge the parent's rows_in equals the sum of its
    children's rows_out (scan leaves read rows_in == rows_out == the table's
    row count, so the invariant holds recursively);
  * partition cells name partitions 1..6 with non-negative delta rows and
    join times;
  * motions ship non-negative tuple/byte counts.

With a TRACE_JSON argument (the probkb CLI's ``--trace_chrome`` output)
the Chrome-trace file must parse and carry only complete spans (phase
``X``) and journal instants (phase ``i``), none with a negative timestamp
or duration.

``--require-spill`` additionally demands that at least one registry's
counter list reports ``spill_bytes_written > 0`` — the out-of-core CI
smoke uses it to prove a budgeted run really exercised the grace-hash
spill path instead of silently fitting in memory.

``--spans`` instead validates a trace JSONL dump (the probkb CLI's
``--trace`` output): every non-root parent id must exist within the
span's trace, child intervals must nest inside their parents', and no
(trace_id, span_id) pair may repeat.
Exits non-zero on the first violation.
"""

import json
import sys


def fail(msg):
    print(f"check_stats_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_statement_forest(scope, ops):
    """Rebuilds the post-order op list into trees, checking edge totals."""
    stack = []  # of (rows_out, label)
    for i, op in enumerate(ops):
        for key in ("label", "rows_in", "rows_out", "num_children"):
            if key not in op:
                fail(f"statement '{scope}' op {i} is missing '{key}'")
        n = op["num_children"]
        if n < 0:
            fail(f"statement '{scope}' op '{op['label']}' has "
                 f"num_children {n} < 0")
        if n > len(stack):
            fail(f"statement '{scope}' op '{op['label']}' wants {n} "
                 f"children but only {len(stack)} subtrees are open")
        if op["rows_in"] < 0 or op["rows_out"] < 0:
            fail(f"statement '{scope}' op '{op['label']}' has negative "
                 f"row counts")
        if n > 0:
            children = stack[len(stack) - n:]
            child_rows = sum(rows for rows, _ in children)
            if op["rows_in"] != child_rows:
                labels = ", ".join(label for _, label in children)
                fail(f"statement '{scope}' op '{op['label']}' reads "
                     f"rows_in={op['rows_in']} but its children "
                     f"[{labels}] produced {child_rows}")
            del stack[len(stack) - n:]
        stack.append((op["rows_out"], op["label"]))
    if not ops:
        return 0
    if not stack:
        fail(f"statement '{scope}' reconstructed to zero roots")
    return len(stack)


def check_registry(name, reg):
    for key in ("statements", "operators", "partitions", "motions"):
        if key not in reg:
            fail(f"registry '{name}' is missing the '{key}' section")

    edges = 0
    for st in reg["statements"]:
        check_statement_forest(st.get("scope", "?"), st["ops"])
        edges += sum(1 for op in st["ops"] if op["num_children"] > 0)

    for cell in reg["partitions"]:
        p = cell.get("partition", 0)
        if not 1 <= p <= 6:
            fail(f"registry '{name}' has partition {p} outside M1..M6")
        if cell.get("delta_rows", -1) < 0:
            fail(f"registry '{name}' iteration {cell.get('iteration')} "
                 f"M{p} has negative delta_rows")
        if cell.get("join_seconds", -1) < 0:
            fail(f"registry '{name}' iteration {cell.get('iteration')} "
                 f"M{p} has negative join_seconds")

    for m in reg["motions"]:
        if m.get("tuples_shipped", -1) < 0 or m.get("bytes_shipped", -1) < 0:
            fail(f"registry '{name}' motion '{m.get('label')}' ships "
                 f"negative volume")

    counters = {c.get("name"): c.get("value", 0)
                for c in reg.get("counters", [])}
    for cname, value in counters.items():
        if not isinstance(value, int) or value < 0:
            fail(f"registry '{name}' counter '{cname}' has a "
                 f"non-integral or negative value: {value!r}")

    print(f"  {name}: {len(reg['statements'])} statements "
          f"({edges} checked edges), {len(reg['partitions'])} partition "
          f"cells, {len(reg['motions'])} motion labels, "
          f"{len(counters)} counters: OK")
    return counters


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"trace '{path}' has no traceEvents")
    phases = {"X": 0, "i": 0}
    for ev in events:
        ph = ev.get("ph")
        if ph not in phases:
            fail(f"trace '{path}' has an event that is neither a complete "
                 f"span nor an instant: {ev}")
        phases[ph] += 1
        if ev.get("ts", -1) < 0 or (ph == "X" and ev.get("dur", -1) < 0):
            fail(f"trace '{path}' has a negative timestamp: {ev}")
    print(f"  trace {path}: {phases['X']} spans, {phases['i']} instants: "
          f"OK")


def check_spans(path):
    """Validates a --trace JSONL span dump as one well-formed span forest."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"spans '{path}' line {lineno} is not JSON: {e}")
            for key in ("trace_id", "span_id", "parent_id", "name",
                        "category", "start_us", "dur_us"):
                if key not in span:
                    fail(f"spans '{path}' line {lineno} is missing '{key}'")
            spans.append(span)
    if not spans:
        fail(f"spans '{path}' is empty")

    by_id = {}
    for span in spans:
        key = (span["trace_id"], span["span_id"])
        if key in by_id:
            fail(f"duplicate span id {key[1]} in trace {key[0]} "
                 f"('{span['name']}' vs '{by_id[key]['name']}')")
        by_id[key] = span
        if span["start_us"] < 0 or span["dur_us"] < 0:
            fail(f"span '{span['name']}' ({key[1]}) has a negative "
                 f"interval: start_us={span['start_us']} "
                 f"dur_us={span['dur_us']}")

    root_id = "0" * 16
    checked_edges = 0
    for span in spans:
        if span["parent_id"] == root_id:
            continue
        parent = by_id.get((span["trace_id"], span["parent_id"]))
        if parent is None:
            fail(f"span '{span['name']}' ({span['span_id']}) names "
                 f"parent {span['parent_id']} which does not exist in "
                 f"trace {span['trace_id']}")
        lo, hi = parent["start_us"], parent["start_us"] + parent["dur_us"]
        start, end = span["start_us"], span["start_us"] + span["dur_us"]
        if start < lo or end > hi:
            fail(f"span '{span['name']}' ({span['span_id']}) interval "
                 f"[{start}, {end}] does not nest inside parent "
                 f"'{parent['name']}' [{lo}, {hi}]")
        checked_edges += 1

    traces = len({span["trace_id"] for span in spans})
    print(f"  spans {path}: {len(spans)} spans across {traces} traces, "
          f"{checked_edges} nesting edges: OK")


def main(argv):
    if len(argv) == 3 and argv[1] == "--spans":
        print(f"check_stats_json: {argv[2]}")
        check_spans(argv[2])
        print("check_stats_json: PASS")
        return 0
    require_spill = "--require-spill" in argv[1:]
    argv = [a for a in argv if a != "--require-spill"]
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    print(f"check_stats_json: {argv[1]}")
    spill_bytes = 0
    if "systems" in doc:
        if not doc["systems"]:
            fail("wrapper document has an empty 'systems' map")
        for name, reg in doc["systems"].items():
            counters = check_registry(name, reg)
            spill_bytes += counters.get("spill_bytes_written", 0)
    else:
        counters = check_registry("stats", doc)
        spill_bytes += counters.get("spill_bytes_written", 0)

    if require_spill:
        if spill_bytes <= 0:
            fail("--require-spill: no registry reported "
                 "spill_bytes_written > 0; the budgeted run never spilled "
                 "(budget too large for the workload?)")
        print(f"  --require-spill: {spill_bytes} spill bytes written: OK")

    if len(argv) == 3:
        check_trace(argv[2])
    print("check_stats_json: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
