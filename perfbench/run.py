#!/usr/bin/env python3
"""Benchmark of the `seqdl run` / `seqdl query` process.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 10 --trace 0

Run from the repository root.  It builds the release `seqdl` binary and the
`perfbench-layers` helper (into `$CARGO_TARGET_DIR`, default `.bench_build`),
generates the workload's inputs from the seed with seqdl-wgen, computes the
expected answers with oracles that do not use the evaluator, then drives the
binary as a subprocess in a closed loop with one client for `--seconds`.

`--trace 0` reports the end-to-end metrics of untraced `seqdl` processes.
Their times are rescaled to a reference host speed: all through the run the
helper runs a fixed calibration task that shares no code with `seqdl`, and
each time is multiplied by CALIB_REF_MS over the median of the task's times
nearest to it, so that a host that is slower for a while slows both alike.
`--trace 1` instead runs, round after round, one untraced `seqdl` process, one
process that times `seqdl_cli::run_cli` in-process, and one process that
calls each layer's public functions under a span; it reports the per-layer
metrics.  Every output is checked.  Metrics are printed one per line, and the
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import oracles  # noqa: E402
import report  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 60
# The set-up runs at least SETUP_REPEATS times, and again until SETUP_MIN_S
# have passed, so that a quick set-up still gives a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
RSS_SAMPLES = 3
# The calibration task (`perfbench-layers calib`) runs after each set-up and
# then at least this often during the measured loop.  Each time is rescaled by
# the median of the CALIB_NEAREST calibration times taken nearest to it, to a
# host on which the task takes CALIB_REF_MS.  CALIB_PAIRS is its answer,
# checked on every run.
CALIB_EVERY_S = 1.0
CALIB_NEAREST = 3
CALIB_REF_MS = 150.0
CALIB_PAIRS = 160000

# Both workloads run the §5.1.1 closure program on one seeded digraph of
# GRAPH_NODES nodes and GRAPH_EDGES edges: `closure` derives all of T with
# `seqdl run`, `point_queries` asks `seqdl query` for the T-successors of one
# node per request.
WORKLOADS = ("closure", "point_queries")
PROGRAM = HERE / "programs" / "closure.sdl"
GRAPH_NODES, GRAPH_EDGES = 400, 3200


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build `seqdl` and `perfbench-layers`; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"no seqdl workspace at {ROOT}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["-p", "seqdl-cli"],
                  ["--manifest-path", str(HERE / "layers" / "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            die("cargo build failed")
    return target / "release" / "seqdl", target / "release" / "perfbench-layers"


class Run:
    """One finished child process: its wall time from spawn until exit with
    stdout drained, its exit status and its output."""

    def __init__(self, argv):
        start = time.perf_counter()
        # A session of its own, so a timeout can stop the child's children too.
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            self.stdout, self.stderr = proc.communicate(timeout=TIMEOUT_S)
            self.ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            self.stdout, self.stderr = proc.communicate()
            self.ok = False
        end = time.perf_counter()
        self.wall_ms = (end - start) * 1e3
        self.mid_s = (start + end) / 2

    def last_json(self):
        """The JSON object on the last line of stderr."""
        return json.loads(self.stderr.decode("utf-8").strip().splitlines()[-1])


class Calibration:
    """The calibration task's samples: (midpoint on the perf_counter clock,
    time in ms), in the order they were taken."""

    def __init__(self, layers):
        self.layers = layers
        self.samples = []

    def sample(self):
        """Run the task once."""
        run = Run([str(self.layers), "calib"])
        doc = json.loads(run.stdout) if run.ok else {}
        if doc.get("pairs") != CALIB_PAIRS:
            die("the calibration task failed")
        self.samples.append((run.mid_s, doc["calib_ms"]))

    def times_ms(self):
        return [ms for _, ms in self.samples]

    def rescale(self, value, mid_s):
        """`value`, measured around `mid_s`, at the reference host speed."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid_s))[:CALIB_NEAREST]
        return value * CALIB_REF_MS / statistics.median(ms for _, ms in nearest)


class Workload:
    """Inputs, requests and output checks of one workload."""

    def __init__(self, name, seed, seqdl, layers, instance):
        self.name, self.seed = name, seed
        self.seqdl, self.layers, self.instance = seqdl, layers, instance

    def prepare(self):
        """Generate the inputs, compute the oracle and run one warm-up
        invocation.  Returns whether the warm-up output was correct."""
        gen = [str(self.layers), "gen", "digraph", str(self.seed),
               str(GRAPH_NODES), str(GRAPH_EDGES), str(self.instance)]
        if subprocess.run(gen).returncode:
            die("input generation failed")
        text = self.instance.read_text(encoding="utf-8")
        self.verified = {}
        # key -> (header line, expected rows), computed here so that the
        # measured loops do no oracle work beyond comparing outputs.
        edges = oracles.parse_edges(text)
        reach = oracles.reachable(edges)
        self.sources = oracles.nodes_of(edges)
        random.Random(self.seed).shuffle(self.sources)
        if self.name == "closure":
            rows = oracles.closure_rows(reach)
            self.expected = {"all": (f"T: {len(rows)} fact(s)", rows)}
        else:
            self.expected = {}
            for src in self.sources:
                rows = oracles.query_rows(reach, src)
                self.expected[src] = (f"T({src}{oracles.SEP}$y): {len(rows)} answer(s)", rows)
        args, key = self.request(0)
        warm = Run([str(self.seqdl), *args])
        return warm.ok and self.check(key, warm.stdout)

    def request(self, i):
        """The seqdl arguments of the i-th request, and its answer key."""
        common = ["--program", str(PROGRAM), "--instance", str(self.instance),
                  "--threads", "1"]
        if self.name == "closure":
            return ["run", *common, "--output", "T"], "all"
        src = self.sources[i % len(self.sources)]
        goal = f"T({src}{oracles.SEP}$y)?"
        return ["query", *common, "--goal", goal], src

    def answers(self, key):
        return len(self.expected[key][1])

    def check(self, key, stdout):
        """Whether `stdout` is the right answer to request `key`.  An output
        byte-identical to one already checked against the oracle passes
        without parsing it again."""
        ref = self.verified.get(key)
        if ref is not None and stdout == ref:
            return True
        header, rows = self.expected[key]
        ok = oracles.check_output(stdout.decode("utf-8", "replace"), header, rows)
        if ok and ref is None:
            self.verified[key] = stdout
        return ok


def measure_untraced(wl, cal, seconds):
    walls, norm, rates, rss = [], [], [], []
    attempted = failed = 0
    # Peak RSS comes from separate invocations under the `rss` wrapper, so a
    # child does not inherit the memory high-water mark of this process.
    for i in range(RSS_SAMPLES):
        args, key = wl.request(i)
        run = Run([str(wl.layers), "rss", str(wl.seqdl), *args])
        attempted += 1
        if run.ok and wl.check(key, run.stdout):
            rss.append(run.last_json()["peak_rss_kib"] / 1024.0)
        else:
            failed += 1
    deadline = time.perf_counter() + seconds
    next_calib = 0.0
    i = 0
    while True:
        if time.perf_counter() >= next_calib:
            cal.sample()
            next_calib = time.perf_counter() + CALIB_EVERY_S
        args, key = wl.request(i)
        i += 1
        run = Run([str(wl.seqdl), *args])
        attempted += 1
        if run.ok and wl.check(key, run.stdout):
            walls.append(run.wall_ms)
            norm.append((run.wall_ms, run.mid_s))
            rates.append(wl.answers(key) / (run.wall_ms / 1e3))
        else:
            failed += 1
        if time.perf_counter() >= deadline:
            break
    cal.sample()
    norm = [cal.rescale(wall, mid) for wall, mid in norm]
    # Throughput of the invocations themselves: the driver's own work between
    # them (checking outputs) is left out.
    values = {
        "wall_norm_p50_ms": statistics.median(norm),
        "peak_rss_mib": max(rss, default=0.0),
        "wall_p50_ms": statistics.median(walls),
        "queries_per_s": len(walls) / (sum(walls) / 1e3),
        "facts_per_s": statistics.median(rates),
    }
    return attempted, failed, values, walls


def measure_traced(wl, seconds):
    rounds = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        args, key = wl.request(i)
        i += 1
        plain = Run([str(wl.seqdl), *args])
        cli = Run([str(wl.layers), "cli", *args])
        traced = Run([str(wl.layers), "trace", *args])
        oks = [plain.ok and wl.check(key, plain.stdout),
               cli.ok and wl.check(key, cli.stdout)]
        try:
            doc = json.loads(traced.stdout) if traced.ok else None
        except ValueError:
            doc = None
        oks.append(doc is not None and doc["counters"]["answers"] == wl.answers(key))
        attempted += 3
        failed += oks.count(False)
        if all(oks):
            command_ms = cli.last_json()["command_ms"]
            rounds.append((plain.wall_ms, cli.wall_ms, command_ms, traced.wall_ms, doc))
        if time.perf_counter() >= deadline:
            break
    return attempted, failed, rounds


def layer_values(rounds):
    """Per-layer metrics: the median over rounds of each quantity."""
    per_round = []
    for wall, cli_wall, command, traced_wall, doc in rounds:
        self_ms, c = doc["self_ms"], doc["counters"]
        attributed, unattributed, outside = report.attribution(cli_wall, command, self_ms)
        run_ms = self_ms["exec.run"]
        per_round.append({
            "io.load_program_ms": self_ms["io.load_program"],
            "io.load_instance_ms": self_ms["io.load_instance"],
            "io.facts_parsed": c["io.facts_parsed"],
            "analysis.check_ms": self_ms["analysis.check"],
            "analysis.diagnostics": c["analysis.diagnostics"],
            "rewrite.ms": self_ms.get("rewrite.magic", 0.0) + self_ms["rewrite.strip_dead"],
            "rewrite.strip_dead_ms": self_ms["rewrite.strip_dead"],
            "rewrite.magic_rules": c["rewrite.magic_rules"],
            "rewrite.rules_removed": c["rewrite.rules_removed"],
            "engine.lower_ms": self_ms["engine.lower"],
            "engine.rule_firings": c["engine.rule_firings"],
            "engine.derived_facts": c["engine.derived_facts"],
            "engine.emit_memo_hits": c["engine.emit_memo_hits"],
            "engine.instructions": c["engine.instructions"],
            "engine.index_probes": c["engine.index_probes"],
            "engine.scans": c["engine.scans"],
            "engine.fused_probes": c["engine.fused_probes"],
            "engine.iterations": c["engine.iterations"],
            "engine.strata": len(doc["strata_ms"]),
            "engine.stratum0_ms": doc["strata_ms"][0],
            "engine.useful_ratio": c["engine.derived_facts"] / max(c["engine.rule_firings"], 1),
            "engine.ns_per_firing": run_ms * 1e6 / max(c["engine.rule_firings"], 1),
            "exec.run_ms": run_ms,
            "exec.cpu_ms": doc["exec_cpu_ms"],
            "exec.cpu_util": doc["exec_cpu_ms"] / (run_ms * c["exec.threads"]),
            "exec.delta_shards": c["exec.delta_shards"],
            "core.store_paths": c["core.store_paths"],
            "core.store_kib": c["core.store_bytes"] / 1024.0,
            "cli.command_ms": command,
            "cli.unattributed_ms": unattributed,
            "proc.outside_ms": outside,
            "wall_ms": wall,
            "cli_wall_ms": cli_wall,
            "traced_wall_ms": traced_wall,
            "attributed_ms": attributed,
            "self_ms": self_ms,
            "strata_ms": doc["strata_ms"],
        })
    values = {name: statistics.median([r[name] for r in per_round])
              for name in report.PER_LAYER if name != "trace.overhead_ms"}
    values["trace.overhead_ms"] = (statistics.median([r["traced_wall_ms"] for r in per_round])
                                   - statistics.median([r["wall_ms"] for r in per_round]))
    return values, per_round


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    seqdl, layers = build()
    work = ROOT / ".bench_build" / "perfbench-work" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(opts.workload, opts.seed, seqdl, layers, work / "input.sdi")
        cal = Calibration(layers)
        setups, setup_ok = [], True
        setup_end = time.perf_counter() + SETUP_MIN_S
        while True:
            start = time.perf_counter()
            setup_ok = wl.prepare() and setup_ok
            end = time.perf_counter()
            setups.append((end - start, (start + end) / 2))
            if opts.trace == 1:
                break
            cal.sample()
            if len(setups) >= SETUP_REPEATS and time.perf_counter() >= setup_end:
                break
        print(f"workload {opts.workload} seed {opts.seed} nproc {os.cpu_count()} "
              f"trace {opts.trace} setup_ok {setup_ok}")
        if opts.trace == 0:
            attempted, failed, values, walls = measure_untraced(wl, cal, opts.seconds)
            values["setup_s"] = statistics.median(cal.rescale(s, mid) for s, mid in setups)
            values["setup_raw_s"] = statistics.median(s for s, _ in setups)
            values["calib_p50_ms"] = statistics.median(cal.times_ms())
            units = report.END_TO_END
            print(f"  samples {len(walls)}, calibration samples {len(cal.samples)};"
                  f" printed, not gated:")
            for name, unit in report.PRINTED.items():
                print(f"    {name:<22} {values[name]:.6g} {unit}")
            if opts.workload == "point_queries":
                # Only here do enough samples lie beyond the 95th percentile
                # (at least ten) for it to be reported.
                print(f"    wall_p95_ms            {report.percentile(walls, 95):.6g} ms")
        else:
            attempted, failed, rounds = measure_traced(wl, opts.seconds)
            if not rounds:
                die("no traced round succeeded")
            values, per_round = layer_values(rounds)
            units = report.PER_LAYER
            print_accounting(per_round)
        print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} invocations)")
        for name, unit in units.items():
            print(f"  {name:<24} {values[name]:.6g} {unit}")
        print(report.result_line(setup_ok and failed == 0, attempted, failed, values, units))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_accounting(per_round):
    """Print the round whose `cli` process wall time is the median, split by
    layer, and how far the untraced `seqdl` process's wall time is from it."""
    mid = sorted(per_round, key=lambda r: r["cli_wall_ms"])[len(per_round) // 2]
    print(f"  rounds {len(per_round)}; the median round, by `perfbench-layers cli` wall:")
    print(f"    cli process wall {mid['cli_wall_ms']:.6g} ms = layer self times"
          f" {mid['attributed_ms']:.6g} + cli.unattributed {mid['cli.unattributed_ms']:.6g}"
          f" + proc.outside {mid['proc.outside_ms']:.6g}")
    for name in report.ATTRIBUTED_SPANS:
        if name in mid["self_ms"]:
            print(f"      {name:<22} {mid['self_ms'][name]:.6g} ms")
    for index, ms in enumerate(mid["strata_ms"]):
        print(f"    engine.stratum{index}_ms {ms:.6g}")
    residual = statistics.median([r["wall_ms"] - r["cli_wall_ms"] for r in per_round])
    print(f"    untraced seqdl wall minus cli process wall, median over rounds:"
          f" {residual:.6g} ms (cross-process residual, not in the split)")
    print(f"    traced process: wall {mid['traced_wall_ms']:.6g} ms, time in no layer span"
          f" {mid['self_ms']['invocation']:.6g} ms")


if __name__ == "__main__":
    main()
