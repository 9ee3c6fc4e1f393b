#!/usr/bin/env python3
"""Top frames of JDK Flight Recorder CPU samples.

Usage:

    python3 tools/jfr_top.py [--top 15] [--depth 64] [--callers TEXT] [--callees TEXT] [--owner PREFIX]
                             [--lines N] a.jfr [b.jfr ...]

Reads the `jdk.ExecutionSample` events of every file (through the JDK's `jfr`
tool) and pools them. Prints each frame's share of all samples as self time
(the sample's top frame) and as inclusive time (the frame is anywhere in the
sample's stack, counted once per sample). With `--callers TEXT`, it also
prints, for the samples whose stack holds a frame whose label contains TEXT,
the share of each caller of the topmost such frame. With `--callees TEXT`, it
splits the samples whose stack holds a frame whose label contains TEXT by the
frame that the outermost such frame calls directly, `(self)` when it is the
sample's top frame, as shares of those samples. With `--owner PREFIX`, it also
credits each sample to its owner, the topmost frame whose fully qualified class
name starts with PREFIX (`(none)` if no frame does), and prints the shares of
(owner, top frame) pairs: a library frame such as `LongMap.seekEntry` then
shows which of the program's methods it ran for. With `--lines N`, it also
pools the samples by their top `N` frames, each labelled `Class.method:line`,
and prints the shares of those stacks: which line of a method holds its time,
and which line of its caller reached it. A frame's label is `Class.method`,
with the class name stripped of its package.

Recordings made without `-XX:+UnlockDiagnosticVMOptions -XX:+DebugNonSafepoints`
attribute a sample to the nearest safepoint's frame, not to the frame that ran:
a hot inlined callee, such as `BoxesRunTime.boxToInteger`, is then credited to
a method nearby (see EXPERIMENTS.md).
"""

import argparse
import collections
import json
import subprocess
import sys


def qualified(frame):
    return frame["method"]["type"]["name"].replace("/", ".")


def label(frame):
    return f"{qualified(frame).rsplit('.', 1)[-1]}.{frame['method']['name']}"


def stacks(path, depth):
    """Stacks of the file's execution samples, top frame first, as lists of
    (fully qualified class name, label, line number) triples."""
    out = subprocess.run(
        ["jfr", "print", "--json", "--events", "jdk.ExecutionSample", "--stack-depth", str(depth), path],
        check=True, capture_output=True, text=True).stdout
    for event in json.loads(out)["recording"]["events"]:
        trace = event["values"].get("stackTrace")
        if trace and trace["frames"]:
            yield [(qualified(f), label(f), f.get("lineNumber", -1)) for f in trace["frames"]]


def table(title, counts, total, top):
    print(f"{title}:")
    for name, n in counts.most_common(top):
        print(f"  {100.0 * n / total:5.1f}%  {n:6d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+", help="JFR recordings")
    ap.add_argument("--top", type=int, default=15, help="rows per table")
    ap.add_argument("--depth", type=int, default=64, help="stack frames read per sample")
    ap.add_argument("--callers", metavar="TEXT", help="also list the callers of frames containing TEXT")
    ap.add_argument("--callees", metavar="TEXT", help="also split the outermost frame containing TEXT by callee")
    ap.add_argument("--owner", metavar="PREFIX",
                    help="also credit each sample to its topmost frame whose class name starts with PREFIX")
    ap.add_argument("--lines", type=int, metavar="N",
                    help="also pool the samples by their top N frames, labelled Class.method:line")
    args = ap.parse_args()

    self_counts, incl_counts, callers, callees, owners, tops = (collections.Counter() for _ in range(6))
    total = matched = outer = 0
    for path in args.files:
        for frames in stacks(path, args.depth):
            stack = [name for _, name, _ in frames]
            total += 1
            if args.owner:
                owner = next((name for cls, name, _ in frames if cls.startswith(args.owner)), "(none)")
                owners[f"{owner} <- {stack[0]}"] += 1
            if args.lines:
                tops[" <- ".join(f"{name}:{line}" for _, name, line in frames[:args.lines])] += 1
            self_counts[stack[0]] += 1
            incl_counts.update(set(stack))
            if args.callers:
                i = next((i for i, name in enumerate(stack) if args.callers in name), None)
                if i is not None:
                    matched += 1
                    callers[stack[i + 1] if i + 1 < len(stack) else "(stack root)"] += 1
            if args.callees:
                i = next((i for i in range(len(stack) - 1, -1, -1) if args.callees in stack[i]), None)
                if i is not None:
                    outer += 1
                    callees[stack[i - 1] if i > 0 else "(self)"] += 1
    if total == 0:
        sys.exit("jfr_top: no jdk.ExecutionSample events")
    print(f"{total} samples from {len(args.files)} file(s)")
    table("self", self_counts, total, args.top)
    table("inclusive", incl_counts, total, args.top)
    if args.callers:
        print(f"frames containing {args.callers!r}: {matched} samples ({100.0 * matched / total:.1f}%)")
        if matched:
            table("their callers, as shares of all samples", callers, total, args.top)
    if args.callees:
        print(f"frames containing {args.callees!r}, outermost: {outer} samples ({100.0 * outer / total:.1f}%)")
        if outer:
            table("their direct callees, as shares of these samples", callees, outer, args.top)
    if args.owner:
        table(f"owner (topmost {args.owner}* frame) <- top frame", owners, total, args.top)
    if args.lines:
        table(f"top {args.lines} frame(s) with line numbers, top frame first", tops, total, args.top)


if __name__ == "__main__":
    main()
