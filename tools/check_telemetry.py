#!/usr/bin/env python3
"""Validate the telemetry exports the example/benches produce.

Usage:
    tools/check_telemetry.py METRICS_JSON TRACE_JSON [JOURNAL_JSONL [REJECTION_JSON]]
    tools/check_telemetry.py --server METRICS_JSON JOURNAL_JSONL

The second form validates the session-server exports that
bench/server_compare.cpp dumps (server_metrics.json /
server_journal.jsonl): the server's telemetry carries server.* and
pool.server.* metrics instead of the full per-session layer set, and no
trace, so the layer and span requirements differ.

Checks, against the naming convention in src/obs/metrics.hpp
(`layer.component.metric`, lower-case):

  * the metric snapshot parses as JSON and has the three kind sections;
  * every metric name is well-formed (lower-case, >= 2 dot-separated
    segments);
  * every layer a full session wires up is present: session.*, engine.*,
    pool.*, maintainer.*;
  * a handful of load-bearing metrics exist by exact name;
  * histogram entries carry ordered percentiles (p50 <= p90 <= p99 <= max);
  * the Chrome trace parses, events are complete ("ph" == "X") with
    id/parent args, every non-root parent id exists, and the span tree
    contains a session.apply span with nested phase children.

With the optional third/fourth arguments it also validates the
diagnosis-tier exports from src/obs/journal.hpp and src/obs/forensics.hpp:

  * the flight-recorder JSONL: one object per line, each carrying
    seq/ts_ns/tid/kind/args with kind drawn from the fixed snake_case
    vocabulary, seq strictly increasing down the file, integer args;
  * the rejection report: every schema field present, witnesses non-empty
    whenever centers reject (with each witness centered on a rejecting
    node and carrying a serialized ball view), the shrunken batch no
    larger than the batches it was shrunk from, and a seq-ordered
    journal window.

Exits non-zero (with a message per failure) when anything is missing, so
CI can gate on it.
"""

import json
import re
import sys

NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

REQUIRED_LAYERS = ["session", "engine", "pool", "maintainer"]

REQUIRED_METRICS = [
    "session.apply.latency",
    "session.phase.mutate",
    "session.phase.verify",
    "session.batches",
    "session.repaired",
    "engine.incremental.full_sweeps",
    "engine.incremental.nodes_reverified",
    "engine.incremental.reextractions",
    "pool.incremental.lanes",
    "pool.incremental.dispatches",
]

REQUIRED_SPANS = ["session.apply", "session.mutate", "session.verify"]

# What the session server's telemetry must carry (src/server/): the
# admission/coalescing counters, the apply latency histogram, the live
# derived gauges, and its WorkerPool's lane metrics.
SERVER_REQUIRED_LAYERS = ["server", "pool"]

SERVER_REQUIRED_METRICS = [
    "server.admitted",
    "server.applies",
    "server.coalesced_batches",
    "server.overloads",
    "server.apply.latency",
    "server.sessions",
    "server.queue_depth",
    "server.max_queue_depth",
    "pool.server.lanes",
    "pool.server.dispatches",
]

# The fixed event vocabulary in src/obs/journal.hpp — kept in lockstep
# with journal_kind_name() and tests/test_obs_journal.cpp.
JOURNAL_KINDS = {
    "batch_applied",
    "repair_emitted",
    "repair_declined",
    "reprove",
    "halo_exchange",
    "lane_dispatch",
    "transport_send",
    "verdict_flip",
    "spot_sample",
    "spot_escalate",
    "server_admit",
    "server_coalesce",
    "server_overload",
}

JOURNAL_EVENT_FIELDS = ["seq", "ts_ns", "tid", "kind", "args"]

REJECTION_FIELDS = [
    "batch_index",
    "generation",
    "scheme",
    "engine",
    "radius",
    "rejecting",
    "newly_rejecting",
    "witnesses",
    "mutation_batch",
    "repair_batch",
    "minimal_batch",
    "raw_batch_rejects",
    "shrink_evals",
    "repair_history",
    "journal_window",
]


def fail(errors: list, message: str) -> None:
    errors.append(message)


def check_metrics(path: str, errors: list,
                  required_layers=None, required_metrics=None) -> None:
    if required_layers is None:
        required_layers = REQUIRED_LAYERS
    if required_metrics is None:
        required_metrics = REQUIRED_METRICS
    with open(path, encoding="utf-8") as f:
        snap = json.load(f)

    for section in ("counters", "gauges", "histograms"):
        if section not in snap:
            fail(errors, f"metrics: missing '{section}' section")
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    histograms = snap.get("histograms", {})
    names = list(counters) + list(gauges) + list(histograms)
    if not names:
        fail(errors, "metrics: snapshot is empty")

    for name in names:
        if not NAME_RE.match(name):
            fail(errors, f"metrics: name '{name}' violates the "
                         "layer.component.metric convention")

    for layer in required_layers:
        if not any(n.startswith(layer + ".") for n in names):
            fail(errors, f"metrics: no '{layer}.*' metrics — a session "
                         "layer went dark")

    for required in required_metrics:
        if required not in names:
            fail(errors, f"metrics: required metric '{required}' missing")

    for name, hist in histograms.items():
        for key in ("count", "p50_ns", "p90_ns", "p99_ns", "max_ns"):
            if key not in hist:
                fail(errors, f"metrics: histogram '{name}' lacks '{key}'")
        if not (hist.get("p50_ns", 0) <= hist.get("p90_ns", 0)
                <= hist.get("p99_ns", 0) <= hist.get("max_ns", 0)):
            fail(errors, f"metrics: histogram '{name}' percentiles are "
                         "not ordered")

    print(f"metrics ok: {len(counters)} counters, {len(gauges)} gauges, "
          f"{len(histograms)} histograms across "
          f"{len({n.split('.')[0] for n in names})} layers")


def check_trace(path: str, errors: list) -> None:
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(errors, "trace: no traceEvents")
        return

    ids = set()
    for e in events:
        if e.get("ph") != "X":
            fail(errors, f"trace: event '{e.get('name')}' is not a "
                         "complete event")
        args = e.get("args", {})
        if "id" not in args or "parent" not in args:
            fail(errors, f"trace: event '{e.get('name')}' lacks id/parent "
                         "args")
        else:
            ids.add(args["id"])
        if e.get("dur", -1) < 0 or e.get("ts", -1) < 0:
            fail(errors, f"trace: event '{e.get('name')}' has negative "
                         "ts/dur")

    for e in events:
        parent = e.get("args", {}).get("parent", 0)
        if parent != 0 and parent not in ids:
            fail(errors, f"trace: event '{e.get('name')}' references "
                         f"unknown parent {parent}")

    by_name = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e)
    for required in REQUIRED_SPANS:
        if required not in by_name:
            fail(errors, f"trace: required span '{required}' missing")

    # At least one apply span must have phase children: the nesting is the
    # whole point of the recorder.
    apply_ids = {e["args"]["id"] for e in by_name.get("session.apply", [])}
    nested = [e for e in events
              if e["args"].get("parent") in apply_ids
              and e["name"] != "session.apply"]
    if apply_ids and not nested:
        fail(errors, "trace: session.apply spans have no phase children")

    print(f"trace ok: {len(events)} spans, {len(by_name)} distinct names, "
          f"{len(nested)} phase spans nested under session.apply")


def check_journal_event(event: dict, where: str, errors: list) -> None:
    for field in JOURNAL_EVENT_FIELDS:
        if field not in event:
            fail(errors, f"{where} lacks '{field}'")
    kind = event.get("kind")
    if kind is not None and kind not in JOURNAL_KINDS:
        fail(errors, f"{where} has unknown kind '{kind}'")
    for field in ("seq", "ts_ns", "tid"):
        value = event.get(field)
        if value is not None and (not isinstance(value, int) or value < 0):
            fail(errors, f"{where} has non-integer {field}: {value!r}")
    args = event.get("args")
    if args is not None:
        if not isinstance(args, dict):
            fail(errors, f"{where} args is not an object")
        else:
            for key, value in args.items():
                if not isinstance(value, int):
                    fail(errors, f"{where} arg '{key}' is not an integer")


def check_seq_order(events: list, where: str, errors: list) -> None:
    seqs = [e["seq"] for e in events
            if isinstance(e, dict) and isinstance(e.get("seq"), int)]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        fail(errors, f"{where}: seq numbers are not strictly increasing")


def check_journal(path: str, errors: list) -> None:
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        fail(errors, "journal: file has no events")
        return
    events = []
    for i, line in enumerate(lines, 1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(errors, f"journal: line {i} is not JSON: {exc}")
            continue
        if not isinstance(event, dict):
            fail(errors, f"journal: line {i} is not an object")
            continue
        check_journal_event(event, f"journal: line {i}", errors)
        events.append(event)
    check_seq_order(events, "journal", errors)
    kinds = {e.get("kind") for e in events}
    print(f"journal ok: {len(events)} events across "
          f"{len({e.get('tid') for e in events})} threads, "
          f"{len(kinds & JOURNAL_KINDS)} distinct kinds")


def check_rejection(path: str, errors: list) -> None:
    with open(path, encoding="utf-8") as f:
        report = json.load(f)

    for field in REJECTION_FIELDS:
        if field not in report:
            fail(errors, f"rejection: report lacks '{field}'")

    rejecting = report.get("rejecting", [])
    witnesses = report.get("witnesses", [])
    if rejecting and not witnesses:
        fail(errors, "rejection: centers reject but no witness balls were "
                     "captured")
    rejecting_set = set(rejecting)
    for i, witness in enumerate(witnesses):
        where = f"rejection: witness {i}"
        for field in ("center", "newly_rejecting", "view"):
            if field not in witness:
                fail(errors, f"{where} lacks '{field}'")
        if witness.get("center") not in rejecting_set:
            fail(errors, f"{where} centers on {witness.get('center')}, "
                         "which is not a rejecting node")
        view = witness.get("view", {})
        for field in ("center", "center_id", "radius", "nodes", "edges"):
            if field not in view:
                fail(errors, f"{where} view lacks '{field}'")
        if not view.get("nodes"):
            fail(errors, f"{where} view has no nodes")

    def ops_of(key):
        batch = report.get(key, [])
        return batch if isinstance(batch, list) else []

    minimal = len(ops_of("minimal_batch"))
    window = len(ops_of("mutation_batch")) + len(ops_of("repair_batch"))
    if report.get("raw_batch_rejects"):
        window = len(ops_of("mutation_batch"))
    if minimal > window:
        fail(errors, f"rejection: minimal batch ({minimal} ops) is larger "
                     f"than the batch it was shrunk from ({window} ops)")

    radius = report.get("radius", -1)
    if not isinstance(radius, int) or radius < 0:
        fail(errors, f"rejection: bad radius {radius!r}")

    for i, event in enumerate(report.get("journal_window", [])):
        check_journal_event(event, f"rejection: journal_window[{i}]", errors)
    check_seq_order(report.get("journal_window", []),
                    "rejection: journal_window", errors)

    print(f"rejection ok: {len(rejecting)} rejecting, "
          f"{len(witnesses)} witness balls, minimal batch {minimal} op(s) "
          f"shrunk from {window}")


def check_server_journal(path: str, errors: list) -> None:
    """Like check_journal, but also insists the server kinds showed up —
    a soak that never admits or coalesces validated nothing."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    events = []
    for i, line in enumerate(lines, 1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(errors, f"journal: line {i} is not JSON: {exc}")
            continue
        if not isinstance(event, dict):
            fail(errors, f"journal: line {i} is not an object")
            continue
        check_journal_event(event, f"journal: line {i}", errors)
        events.append(event)
    check_seq_order(events, "journal", errors)
    kinds = {e.get("kind") for e in events}
    for required in ("server_admit", "server_coalesce", "server_overload"):
        if required not in kinds:
            fail(errors, f"journal: no '{required}' events — the soak did "
                         "not exercise that path")
    print(f"server journal ok: {len(events)} events, "
          f"{len(kinds & JOURNAL_KINDS)} distinct kinds")


def server_main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors: list = []
    try:
        check_metrics(argv[0], errors, SERVER_REQUIRED_LAYERS,
                      SERVER_REQUIRED_METRICS)
    except (OSError, json.JSONDecodeError) as exc:
        fail(errors, f"metrics: cannot read {argv[0]}: {exc}")
    try:
        check_server_journal(argv[1], errors)
    except OSError as exc:
        fail(errors, f"journal: cannot read {argv[1]}: {exc}")
    for message in errors:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if errors else 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--server":
        return server_main(sys.argv[2:])
    if len(sys.argv) < 3 or len(sys.argv) > 5:
        print(__doc__, file=sys.stderr)
        return 2
    errors: list = []
    try:
        check_metrics(sys.argv[1], errors)
    except (OSError, json.JSONDecodeError) as exc:
        fail(errors, f"metrics: cannot read {sys.argv[1]}: {exc}")
    try:
        check_trace(sys.argv[2], errors)
    except (OSError, json.JSONDecodeError) as exc:
        fail(errors, f"trace: cannot read {sys.argv[2]}: {exc}")
    if len(sys.argv) > 3:
        try:
            check_journal(sys.argv[3], errors)
        except OSError as exc:
            fail(errors, f"journal: cannot read {sys.argv[3]}: {exc}")
    if len(sys.argv) > 4:
        try:
            check_rejection(sys.argv[4], errors)
        except (OSError, json.JSONDecodeError) as exc:
            fail(errors, f"rejection: cannot read {sys.argv[4]}: {exc}")
    for message in errors:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
