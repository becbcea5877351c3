//! `perfbench-layers`: the benchmark's input generator and per-layer tracer.
//!
//! ```text
//! perfbench-layers gen digraph  SEED NODES EDGES  OUT.sdi
//! perfbench-layers trace run   --program P --instance I --output REL [--threads N]
//! perfbench-layers trace query --program P --instance I --goal GOAL [--threads N]
//! perfbench-layers cli   <seqdl arguments>
//! perfbench-layers rss   PROGRAM ARGS…
//! perfbench-layers calib
//! ```
//!
//! `trace` runs the layer sequence of `seqdl run` / `seqdl query` through the
//! layers' public functions, one span per call, and prints the spans, their
//! self times and the layers' counters as one JSON object.  `cli` times
//! `seqdl_cli::run_cli` in-process, prints its output as the `seqdl` binary
//! does, and writes `{"command_ms": …}` to stderr.  `rss` runs a program and
//! writes its peak resident set size as `{"peak_rss_kib": …}` to stderr: a
//! child of this small process does not inherit the benchmark driver's own
//! memory high-water mark, as a direct child of the driver would.  `calib`
//! runs the fixed calibration task and prints `{"calib_ms": …, "pairs": …}`.

use perfbench_layers::{calibration_task, children_peak_rss_kib, ms, process_cpu_ns, Recorder};
use seqdl_analysis::{check_program, CheckOptions};
use seqdl_core::{store_stats, RelName};
use seqdl_engine::{ram, EvalStats};
use seqdl_exec::Executor;
use seqdl_io::{load_instance, load_program, save_instance};
use seqdl_rewrite::{
    magic, nonempty_relations, parse_goal, strip_dead_seeded, strip_dead_with_edb,
};
use seqdl_wgen::Workloads;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "gen" => generate(rest),
        Some((cmd, rest)) if cmd == "trace" => trace(rest).map(|doc| println!("{doc}")),
        Some((cmd, rest)) if cmd == "cli" => cli(rest),
        Some((cmd, rest)) if cmd == "rss" => rss(rest),
        Some((cmd, [])) if cmd == "calib" => {
            let start = Instant::now();
            let pairs = black_box(calibration_task());
            let calib_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            println!("{{\"calib_ms\":{},\"pairs\":{pairs}}}", ms(calib_ns));
            Ok(())
        }
        _ => Err("usage: perfbench-layers gen|trace|cli|rss|calib …".to_string()),
    };
    if let Err(message) = outcome {
        eprintln!("perfbench-layers: {message}");
        std::process::exit(1);
    }
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("expected a number, got `{text}`"))
}

fn generate(args: &[String]) -> Result<(), String> {
    let [kind, seed, a, b, out] = args else {
        return Err("usage: gen digraph SEED NODES EDGES OUT".to_string());
    };
    let workloads = Workloads::new(number(seed)?);
    let (a, b) = (number(a)?, number(b)?);
    let instance = match kind.as_str() {
        "digraph" => workloads.digraph_instance(a, b),
        other => return Err(format!("unknown generator `{other}`")),
    };
    save_instance(out, &instance).map_err(|e| e.to_string())
}

fn cli(args: &[String]) -> Result<(), String> {
    seqdl_cli::install_sigint_handler();
    let start = Instant::now();
    let output = seqdl_cli::run_cli(args).map_err(|e| e.to_string())?;
    let command_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if !output.is_empty() {
        println!("{output}");
    }
    eprintln!("{{\"command_ms\":{}}}", ms(command_ns));
    Ok(())
}

fn rss(args: &[String]) -> Result<(), String> {
    let Some((program, rest)) = args.split_first() else {
        return Err("usage: rss PROGRAM ARGS…".to_string());
    };
    let status = std::process::Command::new(program)
        .args(rest)
        .status()
        .map_err(|e| format!("cannot run `{program}`: {e}"))?;
    eprintln!("{{\"peak_rss_kib\":{}}}", children_peak_rss_kib());
    std::process::exit(status.code().unwrap_or(1));
}

/// What the traced layer sequence hands back besides its spans.
struct Traced {
    stats: EvalStats,
    answers: usize,
    facts_parsed: usize,
    diagnostics: usize,
    magic_rules: usize,
    rules_removed: usize,
    threads: usize,
    cpu_ns: u64,
}

fn trace(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("usage: trace run|query FLAGS".to_string());
    };
    let flags = seqdl_cli::parse_flags(rest).map_err(|e| e.to_string())?;
    let threads = flags
        .get_usize("threads")
        .map_err(|e| e.to_string())?
        .unwrap_or(1);
    let executor = Executor::new().with_threads(threads);
    let mut rec = Recorder::new();
    // The order of calls is the one `cmd_run` / `cmd_query` use.  The
    // executor lowers the program to RAM inside `run_with_stats`; the
    // separate `ram::lower` call times that step on its own.
    let traced = rec.span("invocation", |rec| -> Result<Traced, String> {
        let program_path = flags.require("program").map_err(|e| e.to_string())?;
        let instance_path = flags.require("instance").map_err(|e| e.to_string())?;
        let program = rec
            .span("io.load_program", |_| load_program(program_path))
            .map_err(|e| e.to_string())?;
        let instance = rec
            .span("io.load_instance", |_| load_instance(instance_path))
            .map_err(|e| e.to_string())?;
        let facts_parsed = instance.fact_count();
        let mut out = Traced {
            stats: EvalStats::default(),
            answers: 0,
            facts_parsed,
            diagnostics: 0,
            magic_rules: 0,
            rules_removed: 0,
            threads,
            cpu_ns: 0,
        };
        let run_exec = |rec: &mut Recorder,
                        out: &mut Traced,
                        program: &seqdl_syntax::Program,
                        seeds: &[seqdl_core::Fact]|
         -> Result<seqdl_core::Instance, String> {
            let lowered = rec.span("engine.lower", |_| ram::lower(program));
            black_box(lowered.map_err(|e| e.to_string())?);
            let cpu_before = process_cpu_ns();
            let run = rec.span("exec.run", |_| {
                executor.run_with_stats_seeded(program, &instance, seeds)
            });
            out.cpu_ns = process_cpu_ns() - cpu_before;
            let (result, stats) = run.map_err(|e| e.to_string())?;
            out.stats = stats;
            Ok(result)
        };
        match command.as_str() {
            "run" => {
                let output = RelName::new(flags.require("output").map_err(|e| e.to_string())?);
                let options = rec.span("analysis.check", |_| {
                    let mut options = CheckOptions::for_outputs([output]);
                    options.nonempty_edb = Some(nonempty_relations(&instance));
                    out.diagnostics = check_program(&program, &options).diagnostics.len();
                    options
                });
                let strip = rec.span("rewrite.strip_dead", |_| {
                    strip_dead_with_edb(&program, &options.outputs, options.nonempty_edb.as_ref())
                });
                out.rules_removed = strip.removed.len();
                let result = run_exec(rec, &mut out, &strip.program, &[])?;
                out.answers = result.relation(output).map_or(0, |r| r.len());
            }
            "query" => {
                let mp = rec.span("rewrite.magic", |_| {
                    let goal = parse_goal(flags.require("goal").map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?;
                    magic(&program, &goal).map_err(|e| e.to_string())
                })?;
                out.magic_rules = mp.program.rule_count();
                rec.span("analysis.check", |_| {
                    let mut options = CheckOptions::for_outputs([mp.goal.relation]);
                    options.nonempty_edb = Some(nonempty_relations(&instance));
                    out.diagnostics = check_program(&program, &options).diagnostics.len();
                });
                let strip = rec.span("rewrite.strip_dead", |_| {
                    let seeded: BTreeSet<RelName> = mp.seeds.iter().map(|f| f.relation).collect();
                    strip_dead_seeded(&mp.program, &BTreeSet::from([mp.answer]), &seeded)
                });
                out.rules_removed = strip.removed.len();
                let result = run_exec(rec, &mut out, &strip.program, &mp.seeds)?;
                out.answers = mp.answers(&result).len();
            }
            other => return Err(format!("trace supports run and query, not `{other}`")),
        }
        Ok(out)
    })?;

    let store = store_stats();
    let stats = &traced.stats;
    let counters = [
        ("io.facts_parsed", traced.facts_parsed),
        ("analysis.diagnostics", traced.diagnostics),
        ("rewrite.magic_rules", traced.magic_rules),
        ("rewrite.rules_removed", traced.rules_removed),
        ("engine.rule_firings", stats.rule_firings),
        ("engine.derived_facts", stats.derived_facts),
        ("engine.emit_memo_hits", stats.emit_memo_hits),
        ("engine.instructions", stats.instructions_executed),
        ("engine.index_probes", stats.index_probes),
        ("engine.scans", stats.scans),
        ("engine.fused_probes", stats.fused_probes),
        ("engine.iterations", stats.iterations),
        // The executor moves its shard count into each stratum's stats at the
        // stratum's end, so the run-level field reads 0 once the run is over.
        (
            "exec.delta_shards",
            stats.strata.iter().map(|s| s.shards).max().unwrap_or(0),
        ),
        ("exec.threads", traced.threads),
        ("core.store_paths", store.distinct_paths),
        ("core.store_bytes", store.owned_bytes + store.table_bytes),
        ("answers", traced.answers),
    ];
    let counters: Vec<String> = counters
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    let strata: Vec<String> = stats
        .strata
        .iter()
        .map(|s| ms(u64::try_from(s.wall.as_nanos()).unwrap_or(u64::MAX)).to_string())
        .collect();
    Ok(rec.to_json(&[
        ("counters", format!("{{{}}}", counters.join(","))),
        ("strata_ms", format!("[{}]", strata.join(","))),
        ("exec_cpu_ms", ms(traced.cpu_ns).to_string()),
    ]))
}
