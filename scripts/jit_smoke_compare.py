#!/usr/bin/env python3
"""Decision-identity check for the JIT smoke CI step.

Compares two faultsim runs of the same seed — one through the JIT tier,
one with --no-jit — and fails unless they are behaviourally identical:

  * metrics: counters and gauges must match exactly once jit.*-prefixed
    keys are dropped (those are the only keys allowed to differ, since
    they report the engine split itself);
  * traces: the event streams must match after normalization.

Trace normalization drops exactly the fields the engine split is allowed
to touch, nothing else:

  * span ids — the jit run emits extra jit.compile instants, which
    consume ids and shift every later span_id/parent_span_id (including
    nested keys like admit.span_id) by a constant offset;
  * the per-exec "jit" attribute and the jit.compile instants
    themselves.

Everything else — event names, phases, timestamps and durations on the
simulated clock, decisions, fids, switch ids, pass/pipeline counts, fault
verdicts — must be byte-equal, in order.

Histograms are wall-clock latency distributions and are skipped.

Usage: jit_smoke_compare.py METRICS_JIT METRICS_NOJIT TRACE_JIT TRACE_NOJIT
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def strip_jit(d):
    return {k: v for k, v in d.items() if not k.startswith("jit.")}


def compare_metrics(path_a, path_b):
    a, b = load(path_a), load(path_b)
    failures = []
    # Guard against a vacuous pass: the jit run must actually have
    # specialized and executed something, and the --no-jit run nothing.
    jc = a.get("counters", {}).get("jit.compile", 0)
    jh = a.get("counters", {}).get("jit.hit", 0)
    if jc <= 0 or jh <= 0:
        failures.append(
            f"jit run never specialized (jit.compile={jc}, jit.hit={jh}) — smoke is vacuous"
        )
    nc = b.get("counters", {}).get("jit.compile", 0)
    if nc != 0:
        failures.append(f"--no-jit run compiled anyway (jit.compile={nc})")
    for section in ("counters", "gauges"):
        sa = strip_jit(a.get(section, {}))
        sb = strip_jit(b.get(section, {}))
        if sa != sb:
            keys = sorted(set(sa) | set(sb))
            for k in keys:
                if sa.get(k) != sb.get(k):
                    failures.append(
                        f"{section}[{k}]: {sa.get(k)!r} != {sb.get(k)!r}"
                    )
    return failures


def normalize_trace(path):
    events = load(path)["traceEvents"]
    out = []
    for e in events:
        if e.get("name") == "jit.compile":
            continue
        args = {
            k: v
            for k, v in (e.get("args") or {}).items()
            if k != "jit" and not k.endswith("span_id")
        }
        out.append(
            (
                e.get("name"),
                e.get("ph"),
                e.get("ts"),
                e.get("dur"),
                tuple(sorted((k, str(v)) for k, v in args.items())),
            )
        )
    return out


def compare_traces(path_a, path_b):
    na, nb = normalize_trace(path_a), normalize_trace(path_b)
    failures = []
    if len(na) != len(nb):
        failures.append(f"trace event counts differ: {len(na)} != {len(nb)}")
    for i, (x, y) in enumerate(zip(na, nb)):
        if x != y:
            failures.append(f"trace event {i} differs:\n  jit:    {x}\n  no-jit: {y}")
            if len(failures) >= 5:
                failures.append("... (further trace diffs suppressed)")
                break
    return failures


def main():
    if len(sys.argv) != 5:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    m_jit, m_nojit, t_jit, t_nojit = sys.argv[1:]
    failures = compare_metrics(m_jit, m_nojit) + compare_traces(t_jit, t_nojit)
    if failures:
        print("jit smoke: decision-identity FAILED")
        for f in failures:
            print("  " + f)
        return 1
    print("jit smoke: metrics and traces identical modulo jit.* (decision-identity holds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
