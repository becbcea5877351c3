//! Span recording and self-time arithmetic for the benchmark's traced run,
//! plus the two process clocks the helper reads (CPU time, children's RSS)
//! and the fixed calibration task that measures how fast the host runs.
//!
//! The traced run wraps each call into a layer's public function in a span.
//! Spans live in memory as `(name, start, end, parent)` and are written out
//! once, at the end of the process, by [`Recorder::to_json`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// One closed span: nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `io.load_instance`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one process.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans plus their self times and `extra` members, as one
    /// JSON object.
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        let self_ms: Vec<String> = self_times_ns(&self.spans)
            .iter()
            .map(|(name, ns)| format!("\"{name}\":{}", ms(*ns)))
            .collect();
        let mut out = format!(
            "{{\"spans\":[{}],\"self_ms\":{{{}}}",
            spans.join(","),
            self_ms.join(",")
        );
        for (key, value) in extra {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push('}');
        out
    }
}

/// Nanoseconds as milliseconds, with every digit kept.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Self time of every span, summed per name: the span's duration minus the
/// durations of its direct children.  [`Recorder::span`] only makes strictly
/// nested spans, so the children never overlap nor leave their parent.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let children: u64 = spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        *out.entry(span.name).or_default() += (span.end_ns - span.start_ns) - children;
    }
    out
}

/// CPU time consumed so far by every thread of this process, in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target), and the clock id is a constant the
    // kernel always supports, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// The largest peak resident set size, in KiB, of any child process this
/// process has waited for.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_kib() -> u64 {
    // `struct rusage`: two `struct timeval`s, then fourteen `long`s, of which
    // `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable value with the layout of
    // `struct rusage` on 64-bit Linux (4 + 14 eight-byte fields), so the call
    // only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    u64::try_from(usage.longs[0]).unwrap_or(0)
}

/// Number of nodes of the calibration task's graph.
pub const CALIBRATION_NODES: u32 = 400;
/// Number of edges of the calibration task's graph.
pub const CALIBRATION_EDGES: usize = 3200;

/// A fixed task that stands for the evaluator's kind of work without using
/// any seqdl crate: intern the node names of a fixed pseudo-random digraph,
/// compute its transitive closure semi-naively in a hash set of pairs, then
/// render every pair as a string and sort them.  It is hash- and
/// allocation-bound like `seqdl run`, so it slows down with the host the way
/// the program does; and since it shares no code with the program, a change
/// to the program leaves it as it is.  Returns the number of closure pairs.
pub fn calibration_task() -> usize {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut names: HashMap<String, u32> = HashMap::new();
    let mut intern = |name: String| {
        let id = u32::try_from(names.len()).unwrap_or(u32::MAX);
        *names.entry(name).or_insert(id)
    };
    let n = u64::from(CALIBRATION_NODES);
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); CALIBRATION_NODES as usize];
    for _ in 0..CALIBRATION_EDGES {
        let from = intern(format!("n{}", next() % n));
        let to = intern(format!("n{}", next() % n));
        succ[from as usize].push(to);
    }
    let mut closure: HashSet<(u32, u32)> = HashSet::new();
    let mut delta: Vec<(u32, u32)> = Vec::new();
    for (from, tos) in succ.iter().enumerate() {
        for &to in tos {
            let pair = (from as u32, to);
            if closure.insert(pair) {
                delta.push(pair);
            }
        }
    }
    while !delta.is_empty() {
        let mut fresh = Vec::new();
        for (from, mid) in delta {
            for &to in &succ[mid as usize] {
                if closure.insert((from, to)) {
                    fresh.push((from, to));
                }
            }
        }
        delta = fresh;
    }
    let mut rows: Vec<String> = closure
        .iter()
        .map(|(from, to)| format!("T(n{from}\u{b7}n{to})"))
        .collect();
    rows.sort_unstable();
    rows.len()
}
