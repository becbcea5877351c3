"""Oracles for the benchmark's workloads.  None of them calls the evaluator.

They read the generated instance text directly, compute the expected answer
rows, and check a `seqdl` stdout against them.
"""

import re
from collections import deque

SEP = "·"  # `·`, the concatenation dot of the instance and output text
_EDGE = re.compile(r"^R\(([^·()]+)·([^·()]+)\)\.$")


def parse_edges(text):
    """The `R(x·y).` facts of a digraph instance, as (x, y) pairs."""
    edges = []
    for line in text.splitlines():
        m = _EDGE.match(line)
        if m:
            edges.append((m.group(1), m.group(2)))
    return edges


def nodes_of(edges):
    """Every node that occurs in an edge, in first-occurrence order."""
    seen = {}
    for x, y in edges:
        seen.setdefault(x, None)
        seen.setdefault(y, None)
    return list(seen)


def reachable(edges):
    """For every node, the nodes reachable from it by one or more edges (BFS)."""
    succ = {}
    for x, y in edges:
        succ.setdefault(x, set()).add(y)
    out = {}
    for src in nodes_of(edges):
        seen = set()
        queue = deque(succ.get(src, ()))
        seen.update(queue)
        while queue:
            for nxt in succ.get(queue.popleft(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        out[src] = seen
    return out


def closure_rows(reach):
    """Expected `seqdl run --output T` rows of the transitive closure."""
    return {f"T({x}{SEP}{y})" for x, ys in reach.items() for y in ys}


def query_rows(reach, src):
    """Expected `seqdl query --goal 'T(src·$y)?'` answer rows."""
    return {f"T({src}{SEP}{y})" for y in reach.get(src, ())}


def check_output(stdout, header, rows):
    """Whether `stdout` holds `header` followed by exactly `rows`, each once.

    `header` is the count line (`T: 12 fact(s)`), `rows` the expected rows
    without their two-space indent.  Lines before the header (the pre-flight
    lint warnings) are not part of the answer and are skipped.
    """
    lines = stdout.splitlines()
    try:
        start = lines.index(header)
    except ValueError:
        return False
    body = lines[start + 1:]
    while body and not body[-1]:
        body.pop()
    if not all(line.startswith("  ") for line in body):
        return False
    body = [line[2:] for line in body]
    return len(body) == len(rows) == len(set(body)) and set(body) == rows
