//! Tests of the tracer: self-time arithmetic, span and metric names, and that
//! every JSON document the benchmark emits parses with `seqdl_bench::json`.

use perfbench_layers::{self_times_ns, Recorder, Span};
use seqdl_bench::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Whether `name` is a valid metric or span name: non-empty, made of ASCII
/// letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 50, 60, Some(0)),
        span("a.inner", 15, 35, Some(1)),
    ];
    let times = self_times_ns(&spans);
    assert_eq!(times["root"], 100 - 30 - 10);
    assert_eq!(times["a"], 30 - 20);
    assert_eq!(times["b"], 10);
    assert_eq!(times["a.inner"], 20);
    // Self times of a tree always add up to the root's duration.
    assert_eq!(times.values().sum::<u64>(), 100);
}

#[test]
fn repeated_names_are_summed() {
    let spans = [
        span("root", 0, 50, None),
        span("io", 0, 10, Some(0)),
        span("io", 20, 25, Some(0)),
    ];
    let times = self_times_ns(&spans);
    assert_eq!(times["io"], 15);
    assert_eq!(times["root"], 35);
}

#[test]
fn recorder_nests_spans_under_the_open_one() {
    let mut rec = Recorder::new();
    let value = rec.span("outer", |rec| {
        rec.span("first", |_| ());
        rec.span("second", |rec| rec.span("leaf", |_| 7))
    });
    assert_eq!(value, 7);
    let parents: Vec<(&str, Option<usize>)> =
        rec.spans().iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        parents,
        [
            ("outer", None),
            ("first", Some(0)),
            ("second", Some(0)),
            ("leaf", Some(2)),
        ]
    );
    assert!(rec.spans().iter().all(|s| s.start_ns <= s.end_ns));
}

#[test]
fn name_check_rejects_bad_names() {
    for name in [
        "io.load_instance_ms",
        "engine.stratum0_ms",
        "setup_s",
        "a-b",
    ] {
        assert!(valid_name(name), "{name}");
    }
    for name in ["", "with space", "slash/name", "quote\"", "ü"] {
        assert!(!valid_name(name), "{name}");
    }
}

#[test]
fn recorder_json_parses() {
    let mut rec = Recorder::new();
    rec.span("invocation", |rec| rec.span("exec.run", |_| ()));
    let doc = parse(&rec.to_json(&[("counters", "{\"answers\":3}".to_string())])).unwrap();
    let spans = doc.get("spans").and_then(Json::as_array).unwrap();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].get("parent").and_then(Json::as_number), Some(0.0));
    assert!(doc.get("self_ms").and_then(|s| s.get("exec.run")).is_some());
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("answers"))
            .and_then(Json::as_number),
        Some(3.0)
    );
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// Run the real `trace` subcommand on a tiny closure and check its document.
#[test]
fn trace_document_parses_and_accounts_for_the_invocation() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let program = write(
        dir,
        "closure.sdl",
        "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\n",
    );
    let instance = write(dir, "graph.sdi", "R(a·b).\nR(b·c).\nR(c·a).\nR(c·d).\n");
    for (command, target) in [
        ("run", ["--output", "T"]),
        ("query", ["--goal", "T(d·$y)?"]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench-layers"))
            .args(["trace", command, "--program"])
            .arg(&program)
            .arg("--instance")
            .arg(&instance)
            .args(target)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
        let answers = doc.get("counters").and_then(|c| c.get("answers"));
        let want = if command == "run" { 3.0 * 4.0 } else { 0.0 };
        assert_eq!(answers.and_then(Json::as_number), Some(want), "{command}");
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        let root = &spans[0];
        let ns = |s: &Json, k: &str| s.get(k).and_then(Json::as_number).unwrap();
        let root_ms = (ns(root, "end_ns") - ns(root, "start_ns")) / 1e6;
        let self_ms = doc.get("self_ms").and_then(Json::as_object).unwrap();
        for name in self_ms.keys() {
            assert!(valid_name(name), "{name}");
        }
        for layer in [
            "io.load_program",
            "io.load_instance",
            "analysis.check",
            "exec.run",
        ] {
            assert!(self_ms.contains_key(layer), "{command}: {layer}");
        }
        let total: f64 = self_ms.values().filter_map(Json::as_number).sum();
        assert!((total - root_ms).abs() < 1e-6, "{total} vs {root_ms}");
    }
}

/// At two threads the closure of a 300-node chain splits its deltas (up to
/// 299 tuples) into shards of at most 128, and the document counts them.
#[test]
fn trace_counts_delta_shards_at_two_threads() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let program = write(
        dir,
        "chain.sdl",
        "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\n",
    );
    let edges: String = (0..299).map(|i| format!("R(n{i}·n{}).\n", i + 1)).collect();
    let instance = write(dir, "chain.sdi", &edges);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench-layers"))
        .args(["trace", "run", "--program"])
        .arg(&program)
        .arg("--instance")
        .arg(&instance)
        .args(["--output", "T", "--threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_number)
            .unwrap()
    };
    assert_eq!(counter("answers"), 300.0 * 299.0 / 2.0);
    assert!(
        counter("exec.delta_shards") >= 2.0,
        "{}",
        counter("exec.delta_shards")
    );
}

/// The result line printed by `run.py` parses with the workspace's reader.
#[test]
fn result_line_parses() {
    let script = "import sys; sys.dont_write_bytecode = True; sys.path.insert(0, '..'); \
                  import report; \
                  print(report.result_line(True, 3, 0, {'wall_p50_ms': 1.5, 'setup_s': 0.25}, \
                  {'wall_p50_ms': 'ms', 'setup_s': 's'}))";
    let out = Command::new("python3")
        .args(["-c", script])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("python3 runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = parse(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metric = doc
        .get("metrics")
        .and_then(|m| m.get("wall_p50_ms"))
        .unwrap();
    assert_eq!(metric.get("value").and_then(Json::as_number), Some(1.5));
    assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
}

/// The calibration task's fixed graph is strongly connected, so its closure
/// holds every ordered pair of nodes; `calib` prints that count and its time.
#[test]
fn calibration_computes_the_full_closure() {
    use perfbench_layers::{calibration_task, CALIBRATION_NODES};
    let nodes = CALIBRATION_NODES as usize;
    assert_eq!(calibration_task(), nodes * nodes);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench-layers"))
        .arg("calib")
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let number = |k: &str| doc.get(k).and_then(Json::as_number).unwrap();
    assert_eq!(number("pairs"), (nodes * nodes) as f64);
    assert!(number("calib_ms") > 0.0);
}
