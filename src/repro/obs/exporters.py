"""Export traces and metrics: JSONL, Prometheus text, Chrome trace events.

Three formats, three consumers:

* **JSONL** — one :class:`~repro.runtime.trace.TraceRecord` per line; lossless
  round-trip (``load`` returns records equal to the originals) as long as
  record data is JSON-representable, which holds for every kind the fabric
  emits.
* **Prometheus text** — the classic exposition format (``# HELP``/``# TYPE``
  lines, ``name{labels} value`` samples), scrape-compatible and greppable.
* **Chrome trace events** — the ``traceEvents`` JSON consumed by Perfetto
  and ``chrome://tracing``: one track (thread) per sequencing node, one
  complete slice per sequencing-node visit, instant events for
  publish/deliver, and one flow (``ph: "s"/"t"/"f"``, flow id = message
  id) threading each message's publish through its visits to every
  delivery so they connect visually.  Timestamps are **virtual**
  simulation time (ms), exported in the format's microsecond unit.
"""

import json
import math
import pathlib
from typing import Dict, List, Union

from repro.obs.forensics import JourneyIndex
from repro.obs.registry import Histogram, MetricsRegistry
from repro.runtime.trace import Trace, TraceRecord

PathLike = Union[str, pathlib.Path]

# -- JSONL -----------------------------------------------------------------


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize every record as one JSON object per line."""
    return "\n".join(
        json.dumps(
            {"time": record.time, "kind": record.kind, "data": record.data},
            sort_keys=True,
        )
        for record in trace
    )


def write_trace_jsonl(trace: Trace, path: PathLike) -> pathlib.Path:
    """Write :func:`trace_to_jsonl` output to ``path``."""
    resolved = pathlib.Path(path)
    resolved.parent.mkdir(parents=True, exist_ok=True)
    text = trace_to_jsonl(trace)
    resolved.write_text(text + "\n" if text else "")
    return resolved


def trace_from_jsonl(text: str) -> List[TraceRecord]:
    """Parse JSONL back into records equal to the originals.

    Numeric data fields come back as real ints/floats (JSON preserves the
    distinction), and ``time`` is coerced to ``float`` even when the writer
    serialized a whole number without a fractional part — consumers doing
    arithmetic on times (:mod:`repro.obs.forensics`) must behave
    identically on a loaded trace and a live one.
    """
    records: List[TraceRecord] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(TraceRecord(float(obj["time"]), obj["kind"], obj["data"]))
    return records


def read_trace_jsonl(path: PathLike) -> List[TraceRecord]:
    """Load records from a JSONL file written by :func:`write_trace_jsonl`."""
    return trace_from_jsonl(pathlib.Path(path).read_text())


# -- Prometheus text -------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels, extra: Dict[str, str] = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def registry_to_prometheus(registry: MetricsRegistry, collect: bool = True) -> str:
    """Render the registry in the Prometheus text exposition format.

    Runs the registered collectors first (``collect=False`` skips that, for
    rendering a snapshot untouched).  Histograms expose the standard
    ``_bucket``/``_sum``/``_count`` series plus a non-standard ``_max``
    high-water sample.
    """
    if collect:
        registry.collect()
    lines: List[str] = []
    seen_header = set()
    for instrument in registry.instruments():
        name = instrument.name
        if name not in seen_header:
            seen_header.add(name)
            help_text = registry.help_for(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {registry.type_of(name)}")
        if isinstance(instrument, Histogram):
            for bound, cumulative in instrument.cumulative():
                labels = _format_labels(
                    instrument.labels, {"le": _format_value(float(bound))}
                )
                lines.append(f"{name}_bucket{labels} {cumulative}")
            labels = _format_labels(instrument.labels)
            lines.append(f"{name}_sum{labels} {_format_value(instrument.sum)}")
            lines.append(f"{name}_count{labels} {instrument.count}")
            lines.append(f"{name}_max{labels} {_format_value(instrument.max)}")
        else:
            labels = _format_labels(instrument.labels)
            lines.append(f"{name}{labels} {_format_value(float(instrument.value))}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: PathLike) -> pathlib.Path:
    """Write :func:`registry_to_prometheus` output to ``path``."""
    resolved = pathlib.Path(path)
    resolved.parent.mkdir(parents=True, exist_ok=True)
    resolved.write_text(registry_to_prometheus(registry))
    return resolved


# -- Chrome trace events ---------------------------------------------------

#: Process ids used for track grouping in the trace viewer.
SEQUENCING_PID = 1
HOSTS_PID = 2
#: not 3: the number is part of every exported trace's bytes
EPOCHS_PID = 4

#: Minimum slice duration (µs) so zero-length visits stay visible.
MIN_SLICE_US = 1.0


def _us(time_ms: float) -> float:
    """Virtual milliseconds -> trace-event microseconds."""
    return time_ms * 1000.0


#: Category string shared by a message's flow events (start/step/finish
#: events bind into one flow by matching ``cat`` + ``name`` + ``id``).
FLOW_CAT = "message"


def epoch_events(trace: Trace) -> List[Dict[str, object]]:
    """Chrome events for online reconfiguration (``epoch_*`` records).

    A dedicated "epochs" process (:data:`EPOCHS_PID`): tid 0 carries one
    complete (``ph: "X"``) slice per epoch switch spanning its
    begin/end records (an unmatched ``begin`` — e.g. a trace cut mid
    switch — degrades to an instant), and each group gets its own fence
    track (tid = group + 1) with an instant event per ``epoch_fence``
    record, so the fence publish and its per-host consumptions line up
    under the switch slice that injected them.
    """
    fences = trace.select("epoch_fence")
    switches = trace.select("epoch_switch")
    if not fences and not switches:
        return []
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": EPOCHS_PID,
            "tid": 0,
            "args": {"name": "epochs"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": EPOCHS_PID,
            "tid": 0,
            "args": {"name": "epoch switches"},
        },
    ]
    open_switches: Dict[int, TraceRecord] = {}
    for record in switches:
        epoch = record.data["epoch"]
        if record.data["phase"] == "begin":
            open_switches[epoch] = record
            continue
        begin = open_switches.pop(epoch, None)
        start = record.time if begin is None else begin.time
        events.append(
            {
                "ph": "X",
                "name": f"switch to epoch {epoch}",
                "ts": _us(start),
                "dur": max(_us(record.time - start), MIN_SLICE_US),
                "pid": EPOCHS_PID,
                "tid": 0,
                "args": {
                    "epoch": epoch,
                    "drain_events": record.data.get("drain_events"),
                },
            }
        )
    for record in open_switches.values():
        events.append(
            {
                "ph": "i",
                "name": f"switch to epoch {record.data['epoch']} (begin)",
                "ts": _us(record.time),
                "pid": EPOCHS_PID,
                "tid": 0,
                "s": "t",
                "args": {"epoch": record.data["epoch"]},
            }
        )
    named_groups = set()
    for record in fences:
        group = record.data["group"]
        tid = group + 1
        if group not in named_groups:
            named_groups.add(group)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": EPOCHS_PID,
                    "tid": tid,
                    "args": {"name": f"group {group} fences"},
                }
            )
        phase = record.data["phase"]
        args: Dict[str, object] = {
            "msg": record.data["msg"],
            "epoch": record.data["epoch"],
            "phase": phase,
        }
        if phase == "publish":
            args["sender"] = record.data.get("sender")
        else:
            args["host"] = record.data.get("host")
        events.append(
            {
                "ph": "i",
                "name": f"fence e{record.data['epoch']} ({phase})",
                "ts": _us(record.time),
                "pid": EPOCHS_PID,
                "tid": tid,
                "s": "t",
                "args": args,
            }
        )
    return events


def trace_to_chrome(trace: Trace) -> Dict[str, object]:
    """Build a Chrome trace-event document from a fabric trace.

    Layout: the "sequencing nodes" process has one thread per node with a
    complete (``ph: "X"``) slice per message visit (:meth:`Journey.visits
    <repro.obs.forensics.Journey.visits>`); the "hosts" process has one
    thread per host with instant (``ph: "i"``) publish/deliver events.
    Each message additionally emits one flow — start (``ph: "s"``) at the
    publish, a step (``ph: "t"``) at every visit, and a finish
    (``ph: "f"``, binding point ``"e"``) at every delivery — all sharing
    the message id as flow id, so Perfetto draws arrows connecting the
    message's path across tracks.  Load the result in Perfetto or
    ``chrome://tracing``.

    Traces from online reconfigurations additionally get an "epochs"
    process with switch slices and per-group fence instants (see
    :func:`epoch_events`).
    """
    journeys = JourneyIndex(trace).journeys
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": SEQUENCING_PID,
            "tid": 0,
            "args": {"name": "sequencing nodes"},
        },
        {
            "ph": "M",
            "name": "process_name",
            "pid": HOSTS_PID,
            "tid": 0,
            "args": {"name": "hosts"},
        },
    ]
    named_nodes = set()
    named_hosts = set()

    def name_node(node: int) -> None:
        if node not in named_nodes:
            named_nodes.add(node)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": SEQUENCING_PID,
                    "tid": node,
                    "args": {"name": f"seq node {node}"},
                }
            )

    def name_host(host: int) -> None:
        if host not in named_hosts:
            named_hosts.add(host)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": HOSTS_PID,
                    "tid": host,
                    "args": {"name": f"host {host}"},
                }
            )

    for msg_id in sorted(journeys):
        journey = journeys[msg_id]
        if journey.is_fence:
            continue  # drawn on the epochs process (see epoch_events)
        flow = {"cat": FLOW_CAT, "name": f"m{msg_id}", "id": msg_id}
        name_host(journey.sender)
        events.append(
            {
                "ph": "i",
                "name": f"publish m{msg_id}",
                "ts": _us(journey.publish_time),
                "pid": HOSTS_PID,
                "tid": journey.sender,
                "s": "t",
                "args": {"msg": msg_id, "group": journey.group},
            }
        )
        events.append(
            {
                "ph": "s",
                "ts": _us(journey.publish_time),
                "pid": HOSTS_PID,
                "tid": journey.sender,
                **flow,
            }
        )
        for visit in journey.visits():
            name_node(visit.node)
            events.append(
                {
                    "ph": "X",
                    "name": f"m{msg_id} g{journey.group}",
                    "ts": _us(visit.start),
                    "dur": max(_us(visit.end - visit.start), MIN_SLICE_US),
                    "pid": SEQUENCING_PID,
                    "tid": visit.node,
                    "args": {"msg": msg_id, "group": journey.group},
                }
            )
            events.append(
                {
                    "ph": "t",
                    "ts": _us(visit.start),
                    "pid": SEQUENCING_PID,
                    "tid": visit.node,
                    **flow,
                }
            )
        for host, leg in sorted(journey.legs.items()):
            if leg.deliver_time is None:
                continue  # still held back when the trace ends
            name_host(host)
            events.append(
                {
                    "ph": "i",
                    "name": f"deliver m{msg_id}",
                    "ts": _us(leg.deliver_time),
                    "pid": HOSTS_PID,
                    "tid": host,
                    "s": "t",
                    "args": {"msg": msg_id, "group": journey.group},
                }
            )
            events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "ts": _us(leg.deliver_time),
                    "pid": HOSTS_PID,
                    "tid": host,
                    **flow,
                }
            )
    events.extend(epoch_events(trace))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: Trace, path: PathLike) -> pathlib.Path:
    """Write :func:`trace_to_chrome` output as JSON to ``path``."""
    resolved = pathlib.Path(path)
    resolved.parent.mkdir(parents=True, exist_ok=True)
    resolved.write_text(json.dumps(trace_to_chrome(trace)))
    return resolved
