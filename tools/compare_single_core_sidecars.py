#!/usr/bin/env python3
"""Compare a single-core telemetry sidecar in the old names with one
in the chip's names.

Single-core runs used to register the pipeline's telemetry channels
unprefixed ("t0.ipc") and one event track ("core0"). Every machine is
now a ChipSimulator, so one core registers them like any chip core:
each channel gains a "c0." prefix, the chip adds its own per-thread
IPC channels ("t<s>.ipc"), and an "alloc" track, empty on one core,
comes first. This script maps the new names back ("c0.X" -> "X", drop
the chip's "t<s>.ipc" columns and the empty "alloc" track) and checks
that every sample row and every trace event equals the old file's.

    tools/compare_single_core_sidecars.py OLD.ts.ndjson NEW.ts.ndjson
    tools/compare_single_core_sidecars.py OLD.trace.json NEW.trace.json

Host spans that --prof merges into a trace (pid 1) are wall-clock
data and are left out. Exit status: 0 when the files agree after the
mapping, 1 (with the first difference) when they do not.
"""

import json
import re
import sys

CHIP_IPC = re.compile(r"t\d+\.ipc$")


def fail(msg):
    print("differ: " + msg)
    sys.exit(1)


def time_series(path, chip_names):
    """Header, sample rows and footer, with the chip names mapped."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    header, samples, footer = lines[0], lines[1:-1], lines[-1]
    channels = header["channels"]
    keep = range(len(channels))
    if chip_names:
        keep = [i for i, c in enumerate(channels)
                if not CHIP_IPC.match(c["name"])]
        for i in keep:
            name = channels[i]["name"]
            if not name.startswith("c0."):
                fail("%s: channel %s is not core 0's" % (path, name))
            channels[i]["name"] = name[len("c0."):]
    header["channels"] = [channels[i] for i in keep]
    for s in samples:
        s["v"] = [s["v"][i] for i in keep]
    return [header] + samples + [footer]


def trace(path, chip_names):
    """Track names and instant events, each event naming its track."""
    with open(path) as fh:
        records = [e for e in json.load(fh)["traceEvents"]
                   if e.get("pid") == 0]
    names = {e["tid"]: e["args"]["name"] for e in records
             if e["ph"] == "M"}
    events = []
    for e in records:
        if e["ph"] != "M":
            events.append(dict(e, tid=names[e["tid"]]))
    tracks = [names[t] for t in sorted(names)]
    if chip_names:
        if any(e["tid"] == "alloc" for e in events):
            fail("%s: a single core's alloc track has events" % path)
        tracks.remove("alloc")
    return tracks, events


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = sys.argv[1], sys.argv[2]
    if old.endswith(".ts.ndjson"):
        a, b = time_series(old, False), time_series(new, True)
        what = "time-series line"
    elif old.endswith(".trace.json"):
        (ta, a), (tb, b) = trace(old, False), trace(new, True)
        if ta != tb:
            fail("tracks %s vs %s" % (ta, tb))
        what = "trace event"
    else:
        sys.exit("expected .ts.ndjson or .trace.json files")
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            fail("%s %d: %s vs %s" % (what, i, x, y))
    if len(a) != len(b):
        fail("%d vs %d %ss" % (len(a), len(b), what))
    print("equal after mapping: %d %ss" % (len(a), what))


if __name__ == "__main__":
    main()
