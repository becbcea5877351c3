//! # seqdl-exec — stratified scheduler and multi-threaded semi-naive executor
//!
//! The engine (`seqdl-engine`) evaluates a program stratum by stratum, running
//! *every* rule of a stratum in *every* fixpoint iteration on one thread.  This
//! crate sits between the planner and the engine's inner join loop and replaces
//! that global fixpoint with a schedule derived from the program's precedence
//! graph (`seqdl_syntax::PrecedenceGraph`):
//!
//! 1. each declared stratum is condensed into strongly connected components and
//!    topologically ordered into levels ([`Schedule`]);
//! 2. non-recursive components are evaluated with a single pass — no fixpoint
//!    bookkeeping at all;
//! 3. recursive components run the engine's watermark-based semi-naive loop
//!    restricted to the component's own rules, each rule keeping one emit
//!    memo for the whole fixpoint, as the engine does;
//! 4. independent same-level components — and, inside a recursive fixpoint,
//!    rule variants over disjoint delta shards — fan out over a fixed worker
//!    pool built from `std::thread` and `parking_lot`.  Deltas are split into
//!    shards only when the run has more than one thread; at one thread every
//!    job runs in-line on the calling thread.
//!
//! Workers only ever *read* the shared instance (behind a `parking_lot::RwLock`)
//! and produce derived facts into private buffers; the driver merges those
//! buffers into the shared indexed relation store between rounds, so the column
//! indexes are never mutated concurrently.  Merging happens in deterministic job
//! order, which makes the executor's output instance independent of the thread
//! count — the property the differential tests pin down.
//!
//! ```
//! use seqdl_core::{rel, Fact, path_of, Instance};
//! use seqdl_exec::Executor;
//! use seqdl_syntax::parse_program;
//!
//! let program = parse_program(
//!     "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).",
//! )
//! .unwrap();
//! let mut input = Instance::new();
//! for (x, y) in [("a", "c"), ("c", "b")] {
//!     input.insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])])).unwrap();
//! }
//! let out = Executor::new().with_threads(4).run(&program, &input).unwrap();
//! assert!(out.nullary_true(rel("S")));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]

pub mod schedule;

pub use schedule::{Component, Schedule, StratumSchedule};

use parking_lot::{Mutex, RwLock};
use seqdl_core::{Fact, Instance, RelName, Relation};
use seqdl_engine::error::LimitKind;
use seqdl_engine::ram::{self, RuleProc};
use seqdl_engine::{
    fire_proc, prepare_idb_instance, register_plan_indexes, DeltaWindow, EmitMemo, Engine,
    EvalError, EvalStats, FireStats, FixpointStrategy, ResourceGovernor, StratumStats,
};
use seqdl_syntax::Program;
use seqdl_syntax::{ProgramInfo, Stratum};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Deterministic fault injection for the robustness test suite: arm a global
/// countdown and the Kth worker job fired through [`run_job`] panics inside
/// the `catch_unwind` region, exercising the poison → drain → recovery path.
/// Compiled only under the `fail-inject` feature; release builds carry no
/// trace of it.
#[cfg(feature = "fail-inject")]
pub mod fail {
    use std::sync::atomic::{AtomicIsize, Ordering};

    /// `-1` means disarmed; `k ≥ 0` means "panic on the job firing that
    /// decrements this to below zero" — i.e. the (k+1)-th firing after arming.
    static COUNTDOWN: AtomicIsize = AtomicIsize::new(-1);

    /// Arm the injector: the `k`-th subsequent worker-job firing panics
    /// (`k = 0` panics on the very next one).
    pub fn arm(k: usize) {
        COUNTDOWN.store(isize::try_from(k).unwrap_or(isize::MAX), Ordering::SeqCst);
    }

    /// Disarm the injector without firing.
    pub fn disarm() {
        COUNTDOWN.store(-1, Ordering::SeqCst);
    }

    /// Still waiting to fire?  `false` once the armed panic has happened (or
    /// the injector was never armed) — tests assert this to prove the fault
    /// was actually injected.
    pub fn armed() -> bool {
        COUNTDOWN.load(Ordering::SeqCst) >= 0
    }

    /// Called by every worker-job firing; panics exactly once per [`arm`].
    pub fn maybe_panic() {
        let chosen = COUNTDOWN
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v >= 0).then(|| v - 1)
            })
            .is_ok_and(|prev| prev == 0);
        if chosen {
            panic!("fail-inject: injected worker panic");
        }
    }
}

/// Shared panic-poison flag for one executor run.  The first panicking job
/// sets it; every job drawn afterwards sees it and drains as an empty success,
/// so the round's merge (which processes outcomes in job order) surfaces
/// exactly one [`EvalError::WorkerPanic`].  A successful sequential recovery
/// clears the flag so the strata that follow run in parallel again.  This is
/// deliberately *not* the user-facing [`seqdl_core::CancelToken`]: poisoning
/// is an internal executor condition that a retry may absolve, while a
/// cancelled user token must stay cancelled.
#[derive(Debug, Default)]
struct Poison {
    flag: AtomicBool,
}

impl Poison {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    fn set(&self) {
        self.flag.store(true, Ordering::Release);
    }

    fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// The error reported when the worker pool's channels disconnect mid-round —
/// only possible if a pool thread died outside the contained panic path.
fn pool_died() -> EvalError {
    EvalError::Internal {
        detail: "executor worker pool disconnected".to_string(),
    }
}

/// Default number of delta tuples per shard when a recursive iteration is
/// split across the pool (more than one thread); override with
/// [`Executor::with_shard_size`].
const DELTA_SHARD: usize = 128;

/// Upper bound on shards per delta window, as a multiple of the worker count:
/// a huge delta is split into at most `SHARD_FANOUT × threads` jobs (the shard
/// size grows instead), so the job queue is never flooded with thousands of
/// tiny windows.  Output is unaffected — relations compare as sets and the
/// merge stays in deterministic job order.
const SHARD_FANOUT: usize = 4;

/// One unit of work for a round: fire one rule, optionally restricted to a
/// delta window.  Jobs only read the instance; results come back as buffers.
#[derive(Debug)]
struct Job<'a> {
    id: usize,
    /// Index of the rule within its stratum's rule list — the per-rule
    /// profile key shard jobs are merged under.
    rule_ix: usize,
    /// The rule's lowered RAM procedure.
    proc: &'a RuleProc,
    window: Option<DeltaWindow>,
    /// The rule's fixpoint-long emit memo, carried by the rule's first job
    /// of a round and handed back in its outcome; `None` fires the job with
    /// a fresh memo that is dropped with it.
    memo: Option<EmitMemo>,
}

/// What a job that ran to completion hands back: the derived facts, the
/// firing-pass counters, and the emit memo the job carried, if any.
type Fired = (Vec<Fact>, FireStats, Option<EmitMemo>);

/// The result of one job: what it fired, or the first evaluation error the
/// job hit.
struct JobOutcome {
    id: usize,
    /// Stratum-relative rule index, copied from the job.
    rule_ix: usize,
    /// Wall-clock time the job's firing pass took on its worker thread.
    wall: Duration,
    result: Result<Fired, EvalError>,
}

/// Evaluate one job against the shared instance, containing panics.
///
/// Every job produces exactly one [`JobOutcome`], so the driver's per-round
/// collect can never block on a missing result:
///
/// * if the run is already poisoned, the job *drains* — it returns an empty
///   success without evaluating anything, so the merge surfaces only the
///   panicking job's [`EvalError::WorkerPanic`];
/// * if evaluation panics, `catch_unwind` contains it, the poison flag is set
///   (draining the surviving workers' queues), and the outcome carries the
///   offending rule's rendering plus the panic payload.
fn run_job(
    job: Job<'_>,
    instance: &Instance,
    governor: &ResourceGovernor,
    poison: &Poison,
) -> JobOutcome {
    let Job {
        id,
        rule_ix,
        proc,
        window,
        memo,
    } = job;
    if poison.is_set() {
        return JobOutcome {
            id,
            rule_ix,
            wall: Duration::ZERO,
            result: Ok((Vec::new(), FireStats::default(), None)),
        };
    }
    let _rule_span = seqdl_trace::span(|| {
        format!(
            "rule r{} {}{}",
            rule_ix,
            proc.rule.head.relation,
            match window {
                Some(w) => format!(" Δ{}..{}", w.lo, w.hi),
                None => String::new(),
            }
        )
    });
    let pass_start = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(feature = "fail-inject")]
        fail::maybe_panic();
        let mut out = Vec::new();
        // The rule's own memo when this job carries it, else a fresh one
        // that still collapses duplicates within the job's delta window.  A
        // memo the job fails or panics with is dropped here, never reused.
        let carried = memo.is_some();
        let mut memo = memo.unwrap_or_default();
        fire_proc(proc, instance, window, &mut memo, &mut out, Some(governor))
            .map(|fire| (out, fire, carried.then_some(memo)))
    }))
    .unwrap_or_else(|panic| {
        let detail = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        poison.set();
        Err(EvalError::WorkerPanic {
            rule: proc.rule.to_string(),
            detail,
        })
    });
    let wall = pass_start.elapsed();
    if seqdl_trace::enabled() {
        if let Ok((_, fire, _)) = &result {
            seqdl_trace::counter("index probes", fire.index_probes as u64);
            seqdl_trace::counter("scans", fire.scans as u64);
            seqdl_trace::counter("emits", fire.firings as u64);
        }
    }
    JobOutcome {
        id,
        rule_ix,
        wall,
        result,
    }
}

/// Run a round's jobs one after another on the calling thread, under one
/// read lock.
fn run_inline(
    jobs: Vec<Job<'_>>,
    instance: &RwLock<Instance>,
    governor: &ResourceGovernor,
    poison: &Poison,
) -> Vec<JobOutcome> {
    let guard = instance.read();
    jobs.into_iter()
        .map(|job| run_job(job, &guard, governor, poison))
        .collect()
}

/// The worker loop: take jobs from the shared queue until it closes, evaluate
/// each under a read lock, send the private buffer back.  Panic containment
/// and poison draining live in [`run_job`].
fn worker(
    jobs: &Mutex<mpsc::Receiver<Job<'_>>>,
    results: mpsc::Sender<JobOutcome>,
    instance: &RwLock<Instance>,
    governor: &ResourceGovernor,
    poison: &Poison,
) {
    loop {
        // Hold the queue lock only while drawing one job; blocking in `recv`
        // under the lock is the idiomatic mpmc-over-mpsc pattern — the lock is
        // released as soon as a job (or disconnection) arrives.
        let job = match jobs.lock().recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let outcome = run_job(job, &instance.read(), governor, poison);
        if results.send(outcome).is_err() {
            return;
        }
    }
}

/// What the executor does when a worker job panics mid-stratum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the [`EvalError::WorkerPanic`] immediately.
    Fail,
    /// Retry the affected stratum once, inline on the driver thread with
    /// fresh emit memos, before giving up (the default).  The retry starts
    /// from the partially grown — but always consistent — instance; stratum
    /// rules are monotone over it, so the retried fixpoint lands on exactly
    /// the instance an undisturbed run computes.
    #[default]
    Sequential,
}

/// The stratified parallel executor.
///
/// Configured like [`Engine`] (it embeds one for limits, strategy, and the
/// merge/limit bookkeeping) plus a thread count.  `threads == 1` evaluates
/// in-line with no pool at all; `threads == 0` uses the machine's available
/// parallelism.
#[derive(Clone, Debug)]
pub struct Executor {
    engine: Engine,
    threads: usize,
    shard_size: usize,
    recovery: RecoveryPolicy,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor over a default [`Engine`], single-threaded.
    pub fn new() -> Executor {
        Executor {
            engine: Engine::new(),
            threads: 1,
            shard_size: DELTA_SHARD,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Use the given engine (limits and fixpoint strategy).
    pub fn with_engine(mut self, engine: Engine) -> Executor {
        self.engine = engine;
        self
    }

    /// Set the [`RecoveryPolicy`] applied when a worker job panics.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Executor {
        self.recovery = recovery;
        self
    }

    /// The configured panic-recovery policy.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Set the base number of delta tuples per shard (minimum 1; default 128).
    /// With more than one thread, a delta window is split into shards of at
    /// least this size, and into at most a small multiple of the worker count
    /// — whichever yields fewer shards — so small deltas stay in one job and
    /// huge deltas cannot flood the job queue.  At one thread a window is
    /// never split (nothing would run the shards in parallel), and the size
    /// has no effect.
    pub fn with_shard_size(mut self, shard_size: usize) -> Executor {
        self.shard_size = shard_size.max(1);
        self
    }

    /// The configured base shard size.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// The maximum number of shard jobs one delta window can fan out into:
    /// 1 at one thread, else `SHARD_FANOUT ×` the effective thread count —
    /// the clamp that keeps huge deltas from flooding the job queue.
    pub fn max_delta_shards(&self) -> usize {
        ShardPolicy::for_threads(self.shard_size, self.effective_threads()).max_shards
    }

    /// Set the number of compute threads.  `1` runs in-line (no pool); `N > 1`
    /// spawns `N − 1` pool workers with the driver thread executing one job
    /// per round itself, so exactly `N` threads compute; `0` means "use all
    /// available parallelism".
    pub fn with_threads(mut self, threads: usize) -> Executor {
        self.threads = threads;
        self
    }

    /// The effective worker count (resolving `0` to the machine parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// Evaluate `program` on `input`, returning the final instance.
    ///
    /// # Errors
    /// Ill-formed programs and exceeded resource limits, as for [`Engine::run`].
    pub fn run(&self, program: &Program, input: &Instance) -> Result<Instance, EvalError> {
        self.run_with_stats(program, input).map(|(i, _)| i)
    }

    /// Like [`Executor::run`], additionally returning evaluation statistics
    /// (including the per-stratum breakdown).
    ///
    /// # Errors
    /// Ill-formed programs and exceeded resource limits.
    pub fn run_with_stats(
        &self,
        program: &Program,
        input: &Instance,
    ) -> Result<(Instance, EvalStats), EvalError> {
        self.run_with_stats_seeded(program, input, &[])
    }

    /// Evaluate `program` on `input` with extra `seeds` injected before the
    /// first stratum — demand-driven (magic-set) query evaluation through the
    /// existing SCC schedule; see [`Engine::run_seeded`].
    ///
    /// # Errors
    /// Ill-formed programs, seed arity mismatches, and exceeded resource
    /// limits.
    pub fn run_seeded(
        &self,
        program: &Program,
        input: &Instance,
        seeds: &[Fact],
    ) -> Result<Instance, EvalError> {
        self.run_with_stats_seeded(program, input, seeds)
            .map(|(i, _)| i)
    }

    /// Like [`Executor::run_seeded`], additionally returning evaluation
    /// statistics.  [`FixpointStrategy::Naive`] runs the
    /// [`seqdl_engine::reference`] evaluator instead.
    ///
    /// # Errors
    /// Ill-formed programs, seed arity mismatches, and exceeded resource
    /// limits.
    pub fn run_with_stats_seeded(
        &self,
        program: &Program,
        input: &Instance,
        seeds: &[Fact],
    ) -> Result<(Instance, EvalStats), EvalError> {
        if self.engine.strategy() == FixpointStrategy::Naive {
            return seqdl_engine::reference::run_with_stats_seeded(
                program,
                input,
                seeds,
                &self.engine.limits(),
                self.engine.cancel_token().cloned(),
            );
        }
        let info = ProgramInfo::analyse(program)?;
        let mut instance = prepare_idb_instance(&info, input)?;
        seqdl_engine::seed_instance(&mut instance, seeds)?;
        let schedule = Schedule::of_program(program);
        // Plan and lower the whole program to RAM up front: jobs borrow the
        // procedures for the lifetime of the worker pool.  The lowering
        // derives its fixpoint scopes from the same precedence-graph
        // condensation as the schedule, so delta positions agree exactly.
        let lowered = ram::lower(program)?;
        let plans = || {
            lowered
                .strata
                .iter()
                .flat_map(|s| s.procs.iter().map(|p| &p.plan))
        };
        // Register the planner-selected multi-column indexes before the pool
        // starts: workers only ever read the instance, and inserts (which all
        // happen under the driver's write lock) maintain the indexes.
        register_plan_indexes(plans(), &mut instance);
        // Derived relations keep only the column tries some plan can probe;
        // every other column stops paying per-insert indexing.
        seqdl_engine::restrict_head_indexes(info.idb.iter().copied(), plans(), &mut instance);
        let mut stats = EvalStats::default();
        let threads = self.effective_threads();
        let shard = ShardPolicy::for_threads(self.shard_size, threads);
        let lock = RwLock::new(instance);
        // One governor per run: the deadline clock starts here, the store
        // baseline is sampled here, and every checkpoint below (stratum
        // boundaries, fixpoint rounds, amortised in-job instruction checks)
        // polls the same governor from every thread.
        let governor =
            ResourceGovernor::for_run(&self.engine.limits(), self.engine.cancel_token().cloned());
        let poison = Poison::default();
        let ctx = RunCtx {
            engine: &self.engine,
            governor: &governor,
            poison: &poison,
            recovery: self.recovery,
            shard,
        };

        let _run_span = seqdl_trace::span(|| "run".to_string());
        let outcome = if threads <= 1 {
            drive(
                &ctx,
                &program.strata,
                &schedule,
                &lowered,
                &lock,
                &mut stats,
                |jobs| run_inline(jobs, &lock, &governor, &poison),
            )
        } else {
            let (job_tx, job_rx) = mpsc::channel::<Job<'_>>();
            let job_queue = Mutex::new(job_rx);
            let (out_tx, out_rx) = mpsc::channel::<JobOutcome>();
            thread::scope(|scope| {
                // The driver runs one job per round itself, so it is the Nth
                // compute thread: spawn N−1 pool workers.
                for _ in 0..threads - 1 {
                    let results = out_tx.clone();
                    let queue = &job_queue;
                    let shared = &lock;
                    let gov = &governor;
                    let poi = &poison;
                    scope.spawn(move || worker(queue, results, shared, gov, poi));
                }
                // Workers hold clones; dropping the original lets a round's
                // collect fail fast (instead of hanging) if the pool ever dies.
                drop(out_tx);
                let outcome = drive(
                    &ctx,
                    &program.strata,
                    &schedule,
                    &lowered,
                    &lock,
                    &mut stats,
                    |jobs| {
                        // The driver thread is a worker too: hand all but the
                        // first job to the pool, run the first one in place
                        // (small rounds — the serial tail of a fixpoint — never
                        // pay a channel round-trip), then collect the rest.
                        let expected = jobs.len();
                        let mut outcomes = Vec::with_capacity(expected);
                        let mut jobs = jobs.into_iter();
                        let first = jobs.next();
                        for job in jobs {
                            let (id, rule_ix) = (job.id, job.rule_ix);
                            if job_tx.send(job).is_err() {
                                outcomes.push(JobOutcome {
                                    id,
                                    rule_ix,
                                    wall: Duration::ZERO,
                                    result: Err(pool_died()),
                                });
                            }
                        }
                        if let Some(job) = first {
                            outcomes.push(run_job(job, &lock.read(), &governor, &poison));
                        }
                        while outcomes.len() < expected {
                            match out_rx.recv() {
                                Ok(outcome) => outcomes.push(outcome),
                                Err(_) => {
                                    outcomes.push(JobOutcome {
                                        id: usize::MAX,
                                        rule_ix: 0,
                                        wall: Duration::ZERO,
                                        result: Err(pool_died()),
                                    });
                                    break;
                                }
                            }
                        }
                        outcomes
                    },
                );
                // Closing the job queue ends the workers; the scope joins them.
                drop(job_tx);
                outcome
            })
        };
        match outcome {
            Ok(()) => Ok((lock.into_inner(), stats)),
            // Cancelled errors pick up the run's accumulated statistics here —
            // governor checkpoints deep in the evaluation cannot see them.
            Err(e) => Err(e.with_partial_stats(stats)),
        }
    }
}

/// Per-run context shared by the schedule driver and the fixpoint loops: the
/// embedded engine (limits, strategy, merge bookkeeping), the run's resource
/// governor, the panic-poison flag, and the recovery and sharding policies.
#[derive(Clone, Copy)]
struct RunCtx<'e> {
    engine: &'e Engine,
    governor: &'e ResourceGovernor,
    poison: &'e Poison,
    recovery: RecoveryPolicy,
    shard: ShardPolicy,
}

/// How delta windows are split into shard jobs: at least `base` tuples per
/// shard, at most `max_shards` shards per window.
#[derive(Clone, Copy, Debug)]
struct ShardPolicy {
    base: usize,
    max_shards: usize,
}

impl ShardPolicy {
    /// The policy for a run on `threads` compute threads: one shard per
    /// window at one thread — shards there would only run one after another
    /// and split the rule's emit memo — else at most `SHARD_FANOUT` shards
    /// per thread.
    fn for_threads(base: usize, threads: usize) -> ShardPolicy {
        ShardPolicy {
            base,
            max_shards: if threads > 1 {
                SHARD_FANOUT * threads
            } else {
                1
            },
        }
    }

    /// The shard size used for a delta window of `span` tuples.
    fn size_for(&self, span: usize) -> usize {
        let base = self.base.max(1);
        let max_shards = self.max_shards.max(1);
        if span.div_ceil(base) > max_shards {
            span.div_ceil(max_shards)
        } else {
            base
        }
    }
}

/// Start a new evaluation round of the current fixpoint scope, enforcing the
/// shared iteration limit.  The engine bounds the rounds of each declared
/// stratum's fixpoint; the executor bounds the rounds of each *scheduled*
/// fixpoint — a level's single-pass round or one lock-step recursive group.
/// A scheduled fixpoint runs its component with complete inputs, so it never
/// needs more rounds than the engine's joint stratum fixpoint: the executor
/// hitting `LimitExceeded` implies the engine does too at the same limit (the
/// converse may not hold when one stratum chains several recursive components
/// — the executor's per-fixpoint rounds are then genuinely fewer than the
/// engine's joint rounds).  On strata whose recursion is one component — the
/// diverging programs the limit exists for — the two counts coincide exactly,
/// which `tests/engine_exec_limits.rs` pins at 1, 2, and 4 threads.
fn next_round(rounds: &mut usize, engine: &Engine) -> Result<(), EvalError> {
    let limit = engine.limits().max_iterations;
    if *rounds >= limit {
        return Err(EvalError::LimitExceeded {
            what: LimitKind::Iterations,
            limit,
        });
    }
    *rounds += 1;
    Ok(())
}

/// The schedule driver: walk strata, then levels; fire each level's
/// non-recursive components in one single-pass round, then advance the level's
/// recursive components as lock-step semi-naive fixpoints.
///
/// This is also where panic recovery lives: when a stratum's attempt surfaces
/// [`EvalError::WorkerPanic`] and the policy is [`RecoveryPolicy::Sequential`],
/// the stratum retries once — the same schedule over the same lowered
/// procedures, inline on this thread with one shard per delta window and
/// fresh emit memos — before the run gives up.
#[allow(clippy::too_many_arguments)]
fn drive<'a>(
    ctx: &RunCtx<'_>,
    strata: &'a [Stratum],
    schedule: &Schedule,
    lowered: &'a ram::Program,
    instance: &RwLock<Instance>,
    stats: &mut EvalStats,
    mut round: impl FnMut(Vec<Job<'a>>) -> Vec<JobOutcome>,
) -> Result<(), EvalError> {
    for (si, ((stratum, sched), lowered)) in strata
        .iter()
        .zip(&schedule.strata)
        .zip(&lowered.strata)
        .enumerate()
    {
        let _stratum_span = seqdl_trace::span(|| format!("stratum {si}"));
        // Stratum boundary: the full governor check — cancellation, deadline,
        // and the store byte budget — runs before any job is scheduled.
        seqdl_trace::instant("governor check");
        ctx.governor.check()?;
        let start = Instant::now();
        let before = (stats.iterations, stats.derived_facts, stats.rule_firings);
        let attempt = run_stratum(
            ctx,
            stratum,
            sched,
            &lowered.procs,
            instance,
            stats,
            &mut round,
        );
        match attempt {
            Ok(()) => {}
            Err(EvalError::WorkerPanic { .. }) if ctx.recovery == RecoveryPolicy::Sequential => {
                // A worker job panicked; the poison flag has already drained
                // the surviving workers' queues.  Retry the whole stratum once
                // sequentially: the instance is consistent (merges are atomic
                // under the write lock) and stratum rules are monotone over
                // it, so re-running from the partially grown state reaches
                // exactly the fixpoint an undisturbed run computes.  The
                // failed attempt's memos died with it, so the retry starts
                // from fresh ones.  Clearing the poison lets the retry's jobs
                // run instead of draining, and later strata use the pool again.
                let _recovery_span = seqdl_trace::span(|| format!("recover stratum {si}"));
                ctx.poison.reset();
                let inline = RunCtx {
                    shard: ShardPolicy::for_threads(ctx.shard.base, 1),
                    ..*ctx
                };
                run_stratum(
                    &inline,
                    stratum,
                    sched,
                    &lowered.procs,
                    instance,
                    stats,
                    &mut |jobs| run_inline(jobs, instance, ctx.governor, ctx.poison),
                )?;
            }
            Err(e) => return Err(e),
        }
        stats.strata.push(StratumStats {
            rules: stratum.rules.len(),
            iterations: stats.iterations - before.0,
            derived_facts: stats.derived_facts - before.1,
            rule_firings: stats.rule_firings - before.2,
            shards: std::mem::take(&mut stats.delta_shards),
            wall: start.elapsed(),
        });
    }
    Ok(())
}

/// One stratum's parallel schedule: walk the levels, fire each level's
/// non-recursive components in one single-pass round, then advance the level's
/// recursive components as a lock-step fixpoint group.
#[allow(clippy::too_many_arguments)]
fn run_stratum<'a>(
    ctx: &RunCtx<'_>,
    stratum: &'a Stratum,
    sched: &StratumSchedule,
    procs: &'a [RuleProc],
    instance: &RwLock<Instance>,
    stats: &mut EvalStats,
    round: &mut impl FnMut(Vec<Job<'a>>) -> Vec<JobOutcome>,
) -> Result<(), EvalError> {
    for (li, level) in sched.levels.iter().enumerate() {
        let _level_span = seqdl_trace::span(|| format!("level {li}"));
        // Each level's single pass and each lock-step group is its own
        // fixpoint scope for the iteration limit; see [`next_round`].
        let mut rounds = 0usize;
        // Phase 1: every non-recursive component of the level — independent
        // SCCs — fires together in one single-pass round.
        let mut jobs: Vec<Job<'a>> = Vec::new();
        for &c in level {
            let component = &sched.components[c];
            if component.recursive {
                continue;
            }
            for &rule_ix in &component.rule_indices {
                jobs.push(Job {
                    id: jobs.len(),
                    rule_ix,
                    proc: &procs[rule_ix],
                    window: None,
                    memo: None,
                });
            }
        }
        if !jobs.is_empty() {
            let _round_span = seqdl_trace::span(|| "round 0".to_string());
            next_round(&mut rounds, ctx.engine)?;
            seqdl_trace::instant("governor check");
            ctx.governor.check()?;
            stats.iterations += 1;
            let outcomes = round(jobs);
            merge(ctx.engine, instance, outcomes, stats, stratum)?;
        }
        // Phase 2: the recursive components of the level.  They never read
        // from one another, so their fixpoints advance in lock-step: every
        // round pools the rule-variant × delta-shard jobs of *all*
        // components still growing, and each component converges (and drops
        // out) independently.
        let recursive: Vec<&Component> = level
            .iter()
            .map(|&c| &sched.components[c])
            .filter(|c| c.recursive)
            .collect();
        if !recursive.is_empty() {
            fixpoint_group(
                ctx,
                stratum,
                procs,
                &recursive,
                &mut rounds,
                instance,
                stats,
                round,
            )?;
        }
    }
    Ok(())
}

/// Per-component fixpoint state inside a lock-step group.
struct ComponentState<'a, 'c> {
    component: &'c Component,
    /// `(stratum-relative rule index, proc)` per component rule.
    rules: Vec<(usize, &'a RuleProc)>,
    /// Watermark per component relation: its length at the previous iteration
    /// boundary.
    delta_start: BTreeMap<RelName, usize>,
    iteration: usize,
    /// Still growing?  A converged component contributes no further jobs.
    active: bool,
}

/// Semi-naive fixpoints of the recursive components of one level, advanced in
/// lock-step, mirroring [`Engine::eval_rule_set`] per component but with each
/// round pooling every active component's rule variants — split over disjoint
/// delta shards when the run has more than one thread — into one parallel
/// fan-out.  The components never read each other's relations (they share a
/// level), so lock-step rounds derive exactly what sequential per-component
/// fixpoints would.
///
/// Each rule owns one [`EmitMemo`] for the whole group, as in the engine's
/// fixpoint: the rule's first job of a round carries it and the merge hands
/// it back, so a duplicate derived rounds later costs one probe.  The other
/// jobs of the rule in that round (a second delta position, further shards)
/// start from empty memos.  A round that fails to merge returns early and
/// drops every memo with the group.
#[allow(clippy::too_many_arguments)]
fn fixpoint_group<'a, R: FnMut(Vec<Job<'a>>) -> Vec<JobOutcome>>(
    ctx: &RunCtx<'_>,
    stratum: &'a Stratum,
    procs: &'a [RuleProc],
    components: &[&Component],
    rounds: &mut usize,
    instance: &RwLock<Instance>,
    stats: &mut EvalStats,
    round: &mut R,
) -> Result<(), EvalError> {
    let mut states: Vec<ComponentState<'a, '_>> = components
        .iter()
        .map(|component| ComponentState {
            component,
            rules: component
                .rule_indices
                .iter()
                .map(|&i| (i, &procs[i]))
                .collect(),
            delta_start: BTreeMap::new(),
            iteration: 0,
            active: true,
        })
        .collect();
    // Indexed by stratum-relative rule index; only component rules are used.
    let mut memos: Vec<EmitMemo> = procs.iter().map(|_| EmitMemo::new()).collect();

    let mut group_round = 0usize;
    while states.iter().any(|s| s.active) {
        let _round_span = seqdl_trace::span(|| format!("round {group_round}"));
        group_round += 1;
        next_round(rounds, ctx.engine)?;
        // Every fixpoint round is a governor checkpoint: a cancelled token, an
        // expired deadline, or a blown store budget stops the loop here even
        // if every individual job stays under the amortised in-job check.
        seqdl_trace::instant("governor check");
        ctx.governor.check()?;
        stats.iterations += 1;
        let mut jobs: Vec<Job<'a>> = Vec::new();
        {
            let guard = instance.read();
            for state in states.iter().filter(|s| s.active) {
                for &(rule_ix, proc) in &state.rules {
                    // The first job of the rule takes its memo along.
                    let mut memo = Some(std::mem::take(&mut memos[rule_ix]));
                    if state.iteration == 0 {
                        jobs.push(Job {
                            id: jobs.len(),
                            rule_ix,
                            proc,
                            window: None,
                            memo: memo.take(),
                        });
                        continue;
                    }
                    for &pos in &proc.delta_positions {
                        let relation = proc.plan.predicate_at(pos)?.pred.relation;
                        let hi = guard.relation(relation).map_or(0, Relation::len);
                        let lo = state.delta_start.get(&relation).copied().unwrap_or(hi);
                        if lo >= hi {
                            continue;
                        }
                        // Split the delta into equal shards; the shard count is
                        // clamped to a small multiple of the worker count.
                        let size = ctx.shard.size_for(hi - lo);
                        stats.note_shards((hi - lo).div_ceil(size));
                        let mut shard_lo = lo;
                        while shard_lo < hi {
                            let shard_hi = (shard_lo + size).min(hi);
                            jobs.push(Job {
                                id: jobs.len(),
                                rule_ix,
                                proc,
                                window: Some(DeltaWindow {
                                    pos,
                                    lo: shard_lo,
                                    hi: shard_hi,
                                }),
                                memo: memo.take(),
                            });
                            shard_lo = shard_hi;
                        }
                    }
                    // No job this round (every delta empty): keep the memo.
                    if let Some(memo) = memo {
                        memos[rule_ix] = memo;
                    }
                }
            }
        }
        // Watermarks recorded before merging: facts inserted by this round land
        // at ids ≥ these marks and form each component's next delta.
        let marks: Vec<BTreeMap<RelName, usize>> = {
            let guard = instance.read();
            states
                .iter()
                .map(|state| {
                    state
                        .component
                        .relations
                        .iter()
                        .map(|r| (*r, guard.relation(*r).map_or(0, Relation::len)))
                        .collect()
                })
                .collect()
        };
        let outcomes = round(jobs);
        for (rule_ix, memo) in merge(ctx.engine, instance, outcomes, stats, stratum)? {
            memos[rule_ix] = memo;
        }
        // A component keeps iterating exactly while its own relations grew;
        // growth is visible as a length past the pre-merge watermark.
        let guard = instance.read();
        for (state, marks) in states.iter_mut().zip(marks) {
            if !state.active {
                continue;
            }
            let grew = marks
                .iter()
                .any(|(r, &mark)| guard.relation(*r).map_or(0, Relation::len) > mark);
            state.active = grew;
            state.delta_start = marks;
            state.iteration += 1;
        }
    }
    Ok(())
}

/// Merge a round's private buffers into the shared store under the write lock,
/// in ascending job order — the single mutation point of the executor.  Errors
/// are reported in job order too, so failures are deterministic, and so is the
/// per-rule profile: shard jobs fold into `stats.rules` in job order under the
/// same lock, keyed by `(stratum, rule index)`, regardless of which worker ran
/// them or when they finished.
///
/// Returns the emit memos the jobs carried, keyed by rule index — only once
/// every fact of the round is in the instance, so each memo names only facts
/// the instance holds.
fn merge(
    engine: &Engine,
    instance: &RwLock<Instance>,
    mut outcomes: Vec<JobOutcome>,
    stats: &mut EvalStats,
    stratum: &Stratum,
) -> Result<Vec<(usize, EmitMemo)>, EvalError> {
    let _merge_span = seqdl_trace::span(|| "merge".to_string());
    // The stratum under construction: `drive` pushes its `StratumStats` entry
    // only after the stratum completes.
    let stratum_ix = stats.strata.len();
    outcomes.sort_by_key(|o| o.id);
    let mut guard = instance.write();
    let mut memos = Vec::new();
    for outcome in outcomes {
        let rule_ix = outcome.rule_ix;
        let (mut facts, fire, memo) = outcome.result?;
        stats.apply_rule_fire(
            stratum_ix,
            rule_ix,
            || stratum.rules[rule_ix].to_string(),
            fire,
            outcome.wall,
            facts.len(),
        );
        engine.absorb(&mut guard, &mut facts, stats)?;
        memos.extend(memo.map(|m| (rule_ix, m)));
    }
    Ok(memos)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel};
    use seqdl_engine::EvalLimits;
    use seqdl_syntax::parse_program;

    fn graph_instance(edges: &[(&str, &str)]) -> Instance {
        let mut input = Instance::new();
        for (x, y) in edges {
            input
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        input
    }

    #[test]
    fn nonrecursive_strata_take_a_single_pass() {
        // Two declared strata, each a single level: one round per stratum.
        let program = parse_program("T($x) <- R($x).\n---\nS($x) <- T($x), !B($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        let (out, stats) = Executor::new().run_with_stats(&program, &input).unwrap();
        assert_eq!(out.unary_paths(rel("S")).len(), 2);
        assert_eq!(stats.strata.len(), 2);
        for stratum in &stats.strata {
            assert_eq!(stratum.iterations, 1, "single pass per stratum: {stats:?}");
        }
        // The engine's whole-stratum fixpoint needs the extra convergence round.
        let (_, engine_stats) = Engine::new().run_with_stats(&program, &input).unwrap();
        assert!(engine_stats.iterations > stats.iterations);
        // Same firing count: no rule was evaluated twice.
        assert_eq!(engine_stats.rule_firings, stats.rule_firings);
    }

    #[test]
    fn nonrecursive_chain_takes_one_round_per_level() {
        let program =
            parse_program("T1($x) <- R($x).\nT2($x) <- T1($x).\nS($x) <- T2($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"])]);
        let (out, stats) = Executor::new().run_with_stats(&program, &input).unwrap();
        assert_eq!(out.unary_paths(rel("S")).len(), 1);
        assert_eq!(stats.strata[0].iterations, 3, "one round per level");
        assert_eq!(stats.rule_firings, 3, "each rule fired exactly once");
    }

    #[test]
    fn executor_matches_engine_on_recursive_programs() {
        let program = parse_program(
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).",
        )
        .unwrap();
        let input = graph_instance(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "e")]);
        let sequential = Engine::new().run(&program, &input).unwrap();
        for threads in [1usize, 2, 4] {
            let parallel = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn executor_matches_engine_on_mutual_recursion_and_negation() {
        let program = parse_program(
            "P($x) <- R($x·a).\nP($x) <- Q($x·b).\nQ($x) <- P($x·a).\nQ($x) <- R($x).\n---\n\
             S($x) <- Q($x), !P($x).",
        )
        .unwrap();
        let input = Instance::unary(
            rel("R"),
            [
                path_of(&["a", "a", "a", "b"]),
                path_of(&["b", "a"]),
                path_of(&["a", "b", "a", "a"]),
            ],
        );
        let sequential = Engine::new().run(&program, &input).unwrap();
        for threads in [1usize, 2, 4] {
            let parallel = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn same_level_independent_components_evaluate_together() {
        let program =
            parse_program("T($x) <- R($x).\nU($x·$x) <- R($x).\nS($x) <- T($x), U($x·$x).")
                .unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        let (out, stats) = Executor::new()
            .with_threads(2)
            .run_with_stats(&program, &input)
            .unwrap();
        assert_eq!(out.unary_paths(rel("S")).len(), 2);
        // T and U share level 0, S is level 1: two rounds total.
        assert_eq!(stats.strata[0].iterations, 2);
    }

    #[test]
    fn independent_recursive_components_advance_in_lock_step() {
        // P and Q are independent suffix-closure recursions sharing level 0:
        // the group fixpoint pools both components' jobs per round, so the
        // stratum's round count is driven by the *deeper* component (P over the
        // length-4 path: 5 productive rounds + 1 convergence round = 6), not
        // the sum of both components' fixpoints (6 + 4 = 10 run serially).
        let program = parse_program(
            "P($x) <- R($x).\nP($y) <- P(@u·$y).\nQ($x) <- S($x).\nQ($y) <- Q(@u·$y).",
        )
        .unwrap();
        let mut input = Instance::unary(rel("R"), [path_of(&["a", "b", "c", "d"])]);
        input
            .insert_fact(Fact::new(rel("S"), vec![path_of(&["x", "y"])]))
            .unwrap();
        let sequential = Engine::new().run(&program, &input).unwrap();
        for threads in [1usize, 2, 4] {
            let (parallel, stats) = Executor::new()
                .with_threads(threads)
                .run_with_stats(&program, &input)
                .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
            assert_eq!(stats.strata[0].iterations, 6, "lock-step rounds: {stats:?}");
        }
    }

    #[test]
    fn diverging_programs_hit_the_iteration_limit() {
        let program = parse_program("T(a).\nT(a·$x) <- T($x).").unwrap();
        let tight = Engine::new().with_limits(EvalLimits {
            max_iterations: 20,
            max_facts: 100_000,
            max_path_len: 100_000,
            ..EvalLimits::default()
        });
        for threads in [1usize, 4] {
            let err = Executor::new()
                .with_engine(tight.clone())
                .with_threads(threads)
                .run(&program, &Instance::new())
                .unwrap_err();
            assert!(matches!(err, EvalError::LimitExceeded { .. }), "{err}");
        }
    }

    #[test]
    fn naive_strategy_is_supported() {
        let program = parse_program(
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).",
        )
        .unwrap();
        let input = graph_instance(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let naive = Executor::new()
            .with_engine(Engine::new().with_strategy(FixpointStrategy::Naive))
            .with_threads(2)
            .run(&program, &input)
            .unwrap();
        let semi = Executor::new()
            .with_threads(2)
            .run(&program, &input)
            .unwrap();
        assert_eq!(naive, semi);
    }

    #[test]
    fn idb_relations_in_the_input_are_rejected() {
        let program = parse_program("S($x) <- R($x).").unwrap();
        let input = Instance::unary(rel("S"), [path_of(&["a"])]);
        assert!(matches!(
            Executor::new().run(&program, &input),
            Err(EvalError::IdbRelationInInput { .. })
        ));
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let exec = Executor::new().with_threads(0);
        assert!(exec.effective_threads() >= 1);
        let program = parse_program("S($x) <- R($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"])]);
        assert_eq!(
            exec.run(&program, &input)
                .unwrap()
                .unary_paths(rel("S"))
                .len(),
            1
        );
    }

    #[test]
    fn shard_policy_clamps_the_shard_count() {
        let policy = ShardPolicy {
            base: 128,
            max_shards: 8,
        };
        // Small deltas keep the base size (one or a few jobs).
        assert_eq!(policy.size_for(100), 128);
        assert_eq!(policy.size_for(1024), 128);
        // A huge delta is split into at most `max_shards` jobs.
        assert_eq!(policy.size_for(10_000), 1250);
        assert!(10_000usize.div_ceil(policy.size_for(10_000)) <= 8);
        // Degenerate configurations stay usable.
        let tiny = ShardPolicy {
            base: 0,
            max_shards: 0,
        };
        assert_eq!(tiny.size_for(5), 5);
        // One thread never splits a window, whatever the base size.
        let single = ShardPolicy::for_threads(1, 1);
        assert_eq!(single.size_for(10_000), 10_000);
        assert_eq!(
            ShardPolicy::for_threads(128, 2).max_shards,
            2 * SHARD_FANOUT
        );
        assert_eq!(Executor::new().with_threads(1).max_delta_shards(), 1);
    }

    #[test]
    fn custom_shard_sizes_preserve_the_output() {
        let program = parse_program("T($x) <- R($x).\nT($y) <- T(@u·$y).").unwrap();
        let paths: Vec<_> = (0..50)
            .map(|i| path_of(&[&format!("n{i}"), "x", "y"]))
            .collect();
        let input = Instance::unary(rel("R"), paths);
        let sequential = Engine::new().run(&program, &input).unwrap();
        for (threads, shard) in [(1usize, 1usize), (2, 7), (4, 1000)] {
            let exec = Executor::new().with_threads(threads).with_shard_size(shard);
            assert_eq!(exec.shard_size(), shard.max(1));
            let parallel = exec.run(&program, &input).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}, shard = {shard}");
        }
        // A zero shard size is clamped to 1 instead of dividing by zero.
        assert_eq!(Executor::new().with_shard_size(0).shard_size(), 1);
    }

    #[test]
    fn seeded_runs_inject_demand_before_the_first_stratum() {
        // The seed populates an IDB relation — plain inputs must not do that,
        // demand seeds may.
        let program = parse_program("T($x) <- M($x).\nT($y) <- T(@u·$y).\nM(z).").unwrap();
        let seeds = vec![Fact::new(rel("M"), vec![path_of(&["a", "b"])])];
        let out = Executor::new()
            .with_threads(2)
            .run_seeded(&program, &Instance::new(), &seeds)
            .unwrap();
        let t = out.unary_paths(rel("T"));
        assert!(t.contains(&path_of(&["a", "b"])));
        assert!(t.contains(&path_of(&["b"])));
        let engine_out = Engine::new()
            .run_seeded(&program, &Instance::new(), &seeds)
            .unwrap();
        assert_eq!(engine_out, out);
    }

    #[test]
    fn delta_sharding_covers_large_deltas() {
        // A recursive component whose first delta exceeds one shard (> 128
        // tuples): suffixes of a long path, derived one per iteration, but the
        // *base* rule's initial pass seeds > 128 tuples at once via R.
        let program = parse_program("T($x) <- R($x).\nT($y) <- T(@u·$y).").unwrap();
        let paths: Vec<_> = (0..300)
            .map(|i| path_of(&[&format!("n{i}"), "x"]))
            .collect();
        let input = Instance::unary(rel("R"), paths);
        let sequential = Engine::new().run(&program, &input).unwrap();
        for threads in [1usize, 2, 4] {
            let (parallel, stats) = Executor::new()
                .with_threads(threads)
                .run_with_stats(&program, &input)
                .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
            // One thread fires each delta window whole; more threads split
            // the 300-tuple delta into shards of at most 128.
            let shards = stats.strata[0].shards;
            if threads == 1 {
                assert_eq!(shards, 1, "{stats:?}");
            } else {
                assert!(shards >= 2, "threads = {threads}: {stats:?}");
            }
        }
    }

    #[test]
    fn one_thread_keeps_one_emit_memo_per_rule_like_the_engine() {
        // Reachability on a graph with cycles derives most T facts many
        // times; a memo that lives for the whole fixpoint catches every
        // duplicate an earlier round produced, exactly as the engine's does.
        let program = parse_program(
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).",
        )
        .unwrap();
        let names: Vec<String> = (0..12).map(|i| format!("n{i}")).collect();
        let edges: Vec<(&str, &str)> = (0..12)
            .flat_map(|i| [(i, (i + 1) % 12), (i, (i + 5) % 12)])
            .map(|(a, b)| (names[a].as_str(), names[b].as_str()))
            .collect();
        let input = graph_instance(&edges);
        let (expected, engine) = Engine::new().run_with_stats(&program, &input).unwrap();
        let (out, exec) = Executor::new()
            .with_threads(1)
            .run_with_stats(&program, &input)
            .unwrap();
        assert_eq!(expected, out);
        assert!(engine.emit_memo_hits > 0, "{engine:?}");
        assert_eq!(exec.emit_memo_hits, engine.emit_memo_hits);
        assert_eq!(exec.rule_firings, engine.rule_firings);
    }
}
