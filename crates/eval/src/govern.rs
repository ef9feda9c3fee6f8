//! Per-query resource governance: memory budgets, deadlines, cooperative
//! cancellation, nesting-depth limits, and fault-injection hooks.
//!
//! A production SQL++ engine serves many users; one hostile query must not
//! OOM the process or hold a core forever. The [`ResourceGovernor`] is the
//! enforcement point: it is constructed per query from the session's
//! [`Limits`], threaded through the evaluator, and consulted at exactly
//! the choke points the streaming executor already funnels everything
//! through —
//!
//! * **memory**: every pipeline-breaker row's estimated bytes are
//!   admitted through [`ResourceGovernor::admit`] before the row is
//!   buffered (the same `TrackedBuffer`/`MatGauge` choke point that feeds
//!   `peak_live_bindings`), so a budget overrun surfaces as a structured
//!   [`EvalError::ResourceExhausted`] *before* the row is held, and the
//!   live total provably never exceeds the budget. Bytes are the only
//!   denomination: in a nested data model one row may hold a
//!   10 000-element bag, so a row count bounds nothing;
//! * **time**: the `BindingStream` pull loop and the join inner loops call
//!   [`ResourceGovernor::tick`], which is a counter bump on most calls and
//!   only inspects the clock/token every [`TICK_INTERVAL`] ticks — the
//!   same "gate the whole feature behind one discriminant check" pattern
//!   `collect_stats` uses, so an ungoverned query pays nothing;
//! * **depth**: operator evaluation nests through
//!   [`ResourceGovernor::enter_nested`], converting pathological
//!   subquery/plan nesting into a typed error instead of a stack overflow;
//! * **faults**: an optional [`FaultInjector`] piggybacks on the same
//!   hooks, letting `sqlpp-testkit`'s chaos suites fail "the k-th buffer
//!   admission / catalog read / operator eval" deterministically and prove
//!   the engine degrades gracefully.
//!
//! Interior mutability (`Cell`) mirrors `StatsCollector`: the evaluator
//! threads `&self` and is single-threaded by construction. The one
//! cross-thread piece is [`CancelToken`], an `Arc<AtomicBool>` a client
//! can trip from another thread.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::EvalError;
use crate::stats::ExecStats;

/// How many [`ResourceGovernor::tick`]s pass between real deadline/token
/// inspections. Power of two so the amortization is a mask, not a
/// division. The very first tick checks, so a zero deadline trips
/// deterministically on the first pull.
pub const TICK_INTERVAL: u64 = 64;

/// The `resource` tag of a memory-budget refusal — the one error a
/// spill-enabled breaker may absorb (see `spill::is_memory_refusal`).
pub const MEMORY_BUDGET: &str = "memory budget (bytes)";

/// Default cap on operator-evaluation nesting depth (subqueries inside
/// subqueries, deeply nested plans). Far above anything a sane query
/// produces, far below where the stack actually overflows.
pub const DEFAULT_EVAL_DEPTH: u32 = 128;

/// Per-query resource limits, carried by `EvalConfig` (and the engine's
/// `SessionConfig`). The default is fully unlimited — the governor then
/// costs one branch at each choke point and nothing else.
#[derive(Debug, Clone, Default)]
pub struct Limits {
    /// Wall-clock deadline for one query, measured from evaluator
    /// construction. `None` = no deadline.
    pub time: Option<Duration>,
    /// Cooperative cancellation token; trip it from any thread and the
    /// query aborts at its next amortized check.
    pub cancel: Option<CancelToken>,
    /// Operator-evaluation nesting depth cap. `None` = the
    /// [`DEFAULT_EVAL_DEPTH`] guardrail (it exists to prevent stack
    /// overflow, so it is never fully off).
    pub eval_depth: Option<u32>,
    /// Memory budget, measured in *estimated live bytes* across all
    /// pipeline-breaker buffers — what a spill policy acts on. `None` =
    /// unlimited.
    pub memory_bytes: Option<u64>,
    /// Cap on total bytes a query may write to spill files. `None` =
    /// unlimited (spilling is still off unless the session enables it).
    pub spill_bytes: Option<u64>,
}

impl Limits {
    /// No limits at all — the default.
    pub fn none() -> Self {
        Limits::default()
    }

    /// Sets the per-query wall-clock deadline.
    pub fn with_time(mut self, deadline: Duration) -> Self {
        self.time = Some(deadline);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the eval nesting-depth cap.
    pub fn with_eval_depth(mut self, depth: u32) -> Self {
        self.eval_depth = Some(depth);
        self
    }

    /// Sets the memory budget (estimated live buffer bytes).
    pub fn with_memory_bytes(mut self, bytes: u64) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }

    /// Sets the spill-write cap (total bytes written to spill files).
    pub fn with_spill_bytes(mut self, bytes: u64) -> Self {
        self.spill_bytes = Some(bytes);
        self
    }
}

/// A cooperative cancellation token: cheap to clone, safe to trip from
/// another thread. The evaluator polls it at the same amortized cadence
/// as the deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-tripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The points where a fault can be injected — each one a real governor
/// hook, so injected failures travel exactly the paths genuine resource
/// failures would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A row's bytes being admitted into a pipeline-breaker buffer.
    BufferAdmission,
    /// A catalog name being resolved to a value.
    CatalogRead,
    /// An operator evaluation beginning.
    OperatorEval,
    /// A record being written to a spill file.
    SpillWrite,
    /// A record being read back from a spill file.
    SpillRead,
    /// A spill temp file being created.
    TempFileCreate,
    /// A record about to be appended to the write-ahead log.
    WalAppend,
    /// The write-ahead log about to be fsynced after an append.
    WalFsync,
    /// A checkpoint snapshot temp file about to be written.
    SnapshotWrite,
    /// A checkpoint snapshot about to be renamed into place.
    SnapshotRename,
    /// A snapshot or WAL file about to be read during recovery.
    RecoveryRead,
}

impl FaultSite {
    /// All sites, for chaos suites that sweep them.
    pub const ALL: [FaultSite; 11] = [
        FaultSite::BufferAdmission,
        FaultSite::CatalogRead,
        FaultSite::OperatorEval,
        FaultSite::SpillWrite,
        FaultSite::SpillRead,
        FaultSite::TempFileCreate,
        FaultSite::WalAppend,
        FaultSite::WalFsync,
        FaultSite::SnapshotWrite,
        FaultSite::SnapshotRename,
        FaultSite::RecoveryRead,
    ];

    /// The durability-layer subset — the sites the crash-recovery
    /// harness sweeps.
    pub const DURABILITY: [FaultSite; 5] = [
        FaultSite::WalAppend,
        FaultSite::WalFsync,
        FaultSite::SnapshotWrite,
        FaultSite::SnapshotRename,
        FaultSite::RecoveryRead,
    ];

    /// Stable string name (the key `testkit::fault::FaultPlan` uses).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::BufferAdmission => "buffer",
            FaultSite::CatalogRead => "catalog",
            FaultSite::OperatorEval => "operator",
            FaultSite::SpillWrite => "spill-write",
            FaultSite::SpillRead => "spill-read",
            FaultSite::TempFileCreate => "temp-file",
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalFsync => "wal-fsync",
            FaultSite::SnapshotWrite => "snapshot-write",
            FaultSite::SnapshotRename => "snapshot-rename",
            FaultSite::RecoveryRead => "recovery-read",
        }
    }
}

/// A fault-injection hook: called at each [`FaultSite`] visit; returning
/// `Some(error)` makes that visit fail with the given typed error.
/// Deterministic plans (see `sqlpp-testkit`'s `fault` module) live behind
/// this closure, keeping the evaluator free of any test-only state.
#[derive(Clone)]
pub struct FaultInjector(Arc<dyn Fn(FaultSite) -> Option<EvalError> + Send + Sync>);

impl FaultInjector {
    /// Wraps a decision function.
    pub fn new(f: impl Fn(FaultSite) -> Option<EvalError> + Send + Sync + 'static) -> Self {
        FaultInjector(Arc::new(f))
    }

    /// Consults the hook for one site visit.
    pub fn check(&self, site: FaultSite) -> Option<EvalError> {
        (self.0)(site)
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FaultInjector(..)")
    }
}

/// The per-query enforcement object (one per evaluator; the deadline
/// clock starts when it is built). All counters are `Cell`s — the
/// evaluator threads `&self` single-threadedly, like `StatsCollector`.
#[derive(Debug)]
pub struct ResourceGovernor {
    mem_bytes_limit: Option<u64>,
    spill_limit: Option<u64>,
    deadline: Option<Instant>,
    time_limit: Option<Duration>,
    cancel: Option<CancelToken>,
    depth_limit: u32,
    fault: Option<FaultInjector>,
    /// Estimated bytes currently admitted across all live buffers.
    live_bytes: Cell<u64>,
    /// High-water mark of `live_bytes`.
    peak_bytes: Cell<u64>,
    /// Admissions refused over budget.
    denials: Cell<u64>,
    /// Real deadline/token inspections performed (not amortized skips).
    checks: Cell<u64>,
    ticks: Cell<u64>,
    depth: Cell<u32>,
    /// Spill files (partitions + sorted runs) created.
    spill_partitions: Cell<u64>,
    /// Total bytes written to spill files.
    spill_written: Cell<u64>,
    /// K-way merge passes performed by external sorts — every pass
    /// including the final one, so any spilled sort counts at least 1.
    merge_passes: Cell<u64>,
}

impl ResourceGovernor {
    /// Builds the governor for one query run. The deadline, if any, is
    /// `now + limits.time`.
    pub fn new(limits: &Limits, fault: Option<FaultInjector>) -> Self {
        ResourceGovernor {
            mem_bytes_limit: limits.memory_bytes,
            spill_limit: limits.spill_bytes,
            deadline: limits.time.map(|d| Instant::now() + d),
            time_limit: limits.time,
            cancel: limits.cancel.clone(),
            depth_limit: limits.eval_depth.unwrap_or(DEFAULT_EVAL_DEPTH),
            fault,
            live_bytes: Cell::new(0),
            peak_bytes: Cell::new(0),
            denials: Cell::new(0),
            checks: Cell::new(0),
            ticks: Cell::new(0),
            depth: Cell::new(0),
            spill_partitions: Cell::new(0),
            spill_written: Cell::new(0),
            merge_passes: Cell::new(0),
        }
    }

    /// True when buffer admissions must consult the governor (a memory
    /// budget is set, or a fault hook wants the admission site).
    pub fn tracks_memory(&self) -> bool {
        self.mem_bytes_limit.is_some() || self.fault.is_some()
    }

    /// True when pull loops must tick the governor (a deadline or token
    /// is attached).
    pub fn watches_time(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// True when a fault hook is attached.
    pub fn injects_faults(&self) -> bool {
        self.fault.is_some()
    }

    /// `Some(self)` iff buffers need a governor — the shape the stream
    /// layer's gauges consume, mirroring `Option<&StatsCollector>`.
    pub fn as_memory_guard(&self) -> Option<&Self> {
        if self.tracks_memory() {
            Some(self)
        } else {
            None
        }
    }

    /// `Some(self)` iff pull loops need ticking.
    pub fn as_watcher(&self) -> Option<&Self> {
        if self.watches_time() {
            Some(self)
        } else {
            None
        }
    }

    /// Admits `n` estimated bytes into the live-buffer account, or refuses
    /// with [`EvalError::ResourceExhausted`] *without* counting them — so
    /// the live total (and therefore `peak_budget_bytes`) never exceeds
    /// the budget. Also the [`FaultSite::BufferAdmission`] injection point.
    pub fn admit(&self, n: u64) -> Result<(), EvalError> {
        self.fault_at(FaultSite::BufferAdmission)?;
        let live = self.live_bytes.get() + n;
        if let Some(limit) = self.mem_bytes_limit {
            if live > limit {
                self.denials.set(self.denials.get() + 1);
                return Err(EvalError::ResourceExhausted {
                    resource: MEMORY_BUDGET,
                    limit,
                    used: live,
                });
            }
        }
        self.live_bytes.set(live);
        if live > self.peak_bytes.get() {
            self.peak_bytes.set(live);
        }
        Ok(())
    }

    /// Releases `n` admitted bytes (buffer dropped, handed off, or
    /// spilled).
    pub fn release(&self, n: u64) {
        self.live_bytes.set(self.live_bytes.get().saturating_sub(n));
    }

    /// Accounts `n` bytes written to a spill file against the spill-write
    /// cap. Refused writes are not counted (the file is abandoned by the
    /// failing operator), so retried queries start from a clean slate.
    pub fn add_spill_write(&self, n: u64) -> Result<(), EvalError> {
        let written = self.spill_written.get() + n;
        if let Some(limit) = self.spill_limit {
            if written > limit {
                self.denials.set(self.denials.get() + 1);
                return Err(EvalError::ResourceExhausted {
                    resource: "spill budget (bytes)",
                    limit,
                    used: written,
                });
            }
        }
        self.spill_written.set(written);
        Ok(())
    }

    /// Counts `n` spill files (partitions or sorted runs) created.
    pub fn add_spill_partitions(&self, n: u64) {
        self.spill_partitions.set(self.spill_partitions.get() + n);
    }

    /// Counts one k-way merge pass (intermediate or final).
    pub fn add_merge_pass(&self) {
        self.merge_passes.set(self.merge_passes.get() + 1);
    }

    /// One amortized pull-loop step: bumps a counter, and every
    /// [`TICK_INTERVAL`] ticks (including the very first) performs a real
    /// deadline/token check.
    pub fn tick(&self) -> Result<(), EvalError> {
        let t = self.ticks.get();
        self.ticks.set(t + 1);
        if t & (TICK_INTERVAL - 1) == 0 {
            self.check_now()
        } else {
            Ok(())
        }
    }

    /// The batch-sized equivalent of [`ResourceGovernor::tick`]: advances
    /// the amortized counter as if the pull loop had ticked once per
    /// [`TICK_INTERVAL`] of the `rows` just produced, so a whole batch
    /// costs at most a handful of counter bumps while deadline/token
    /// responsiveness stays bounded by the batch size (a 1024-row batch
    /// can never advance the clock-observation point by more than 64
    /// rows' worth of ticks).
    pub fn tick_rows(&self, rows: u64) -> Result<(), EvalError> {
        for _ in 0..rows / TICK_INTERVAL {
            self.tick()?;
        }
        Ok(())
    }

    /// An unamortized deadline/token check.
    pub fn check_now(&self) -> Result<(), EvalError> {
        self.checks.set(self.checks.get() + 1);
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(EvalError::Cancelled {
                    reason: "cancellation requested".into(),
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(EvalError::Cancelled {
                    reason: format!(
                        "deadline of {:?} exceeded",
                        self.time_limit.unwrap_or_default()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Enters one level of operator-evaluation nesting; callers must pair
    /// with [`ResourceGovernor::exit_nested`] on *every* path (the
    /// evaluator wraps the recursive entry point, so the pairing lives in
    /// exactly one place).
    pub fn enter_nested(&self) -> Result<(), EvalError> {
        let d = self.depth.get() + 1;
        if d > self.depth_limit {
            return Err(EvalError::ResourceExhausted {
                resource: "eval nesting depth",
                limit: self.depth_limit as u64,
                used: d as u64,
            });
        }
        self.depth.set(d);
        Ok(())
    }

    /// Leaves one nesting level.
    pub fn exit_nested(&self) {
        self.depth.set(self.depth.get().saturating_sub(1));
    }

    /// Fault-injection hook: one site visit. One `Option` branch when no
    /// injector is attached.
    pub fn fault_at(&self, site: FaultSite) -> Result<(), EvalError> {
        if let Some(inj) = &self.fault {
            if let Some(e) = inj.check(site) {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Admissions refused over budget.
    pub fn budget_denials(&self) -> u64 {
        self.denials.get()
    }

    /// Real deadline/token inspections performed.
    pub fn cancel_checks(&self) -> u64 {
        self.checks.get()
    }

    /// Estimated bytes currently admitted.
    pub fn live_buffer_bytes(&self) -> u64 {
        self.live_bytes.get()
    }

    /// High-water mark of admitted bytes.
    pub fn peak_buffer_bytes(&self) -> u64 {
        self.peak_bytes.get()
    }

    /// Spill files created so far.
    pub fn spill_partitions(&self) -> u64 {
        self.spill_partitions.get()
    }

    /// Bytes written to spill files so far.
    pub fn spill_bytes_written(&self) -> u64 {
        self.spill_written.get()
    }

    /// K-way merge passes performed so far (the final pass included).
    pub fn merge_passes(&self) -> u64 {
        self.merge_passes.get()
    }

    /// Copies the governor's counters (and the limits in effect) into a
    /// stats snapshot, so `EXPLAIN ANALYZE` and benches can report them.
    pub fn fill_stats(&self, stats: &mut ExecStats) {
        stats.budget_denials = self.denials.get();
        stats.cancel_checks = self.checks.get();
        stats.time_budget_ms = self.time_limit.map(|d| d.as_millis() as u64);
        stats.mem_bytes_budget = self.mem_bytes_limit;
        stats.peak_budget_bytes = self.peak_bytes.get();
        stats.spill_partitions = self.spill_partitions.get();
        stats.spill_bytes_written = self.spill_written.get();
        stats.merge_passes = self.merge_passes.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_admits_and_ticks_freely() {
        let g = ResourceGovernor::new(&Limits::none(), None);
        assert!(!g.tracks_memory() && !g.watches_time());
        assert!(g.as_memory_guard().is_none() && g.as_watcher().is_none());
        for _ in 0..1000 {
            g.admit(10).unwrap();
            g.tick().unwrap();
        }
        assert_eq!(g.budget_denials(), 0);
        assert_eq!(g.peak_buffer_bytes(), 10_000);
    }

    #[test]
    fn zero_deadline_trips_on_the_first_tick() {
        let g = ResourceGovernor::new(&Limits::none().with_time(Duration::ZERO), None);
        assert!(g.watches_time());
        let err = g.tick().unwrap_err();
        assert!(
            matches!(err, EvalError::Cancelled { .. }),
            "wrong error: {err:?}"
        );
        assert_eq!(g.cancel_checks(), 1);
    }

    #[test]
    fn ticks_are_amortized_between_real_checks() {
        let token = CancelToken::new();
        let g = ResourceGovernor::new(&Limits::none().with_cancel(token.clone()), None);
        g.tick().unwrap(); // tick 0: real check
        token.cancel();
        for t in 1..TICK_INTERVAL {
            assert!(g.tick().is_ok(), "tick {t} should be amortized away");
        }
        assert!(g.tick().is_err(), "the next interval boundary must check");
        assert_eq!(g.cancel_checks(), 2);
    }

    #[test]
    fn depth_limit_is_enforced_and_rebalances() {
        let g = ResourceGovernor::new(&Limits::none().with_eval_depth(2), None);
        g.enter_nested().unwrap();
        g.enter_nested().unwrap();
        assert!(matches!(
            g.enter_nested(),
            Err(EvalError::ResourceExhausted {
                resource: "eval nesting depth",
                ..
            })
        ));
        g.exit_nested();
        g.enter_nested().unwrap();
        g.exit_nested();
        g.exit_nested();
    }

    #[test]
    fn fault_injector_fires_at_its_site_only() {
        let inj = FaultInjector::new(|site| {
            (site == FaultSite::CatalogRead)
                .then(|| EvalError::Resource("injected fault at catalog".into()))
        });
        let g = ResourceGovernor::new(&Limits::none(), Some(inj));
        assert!(g.tracks_memory(), "fault hook activates admission checks");
        assert!(g.admit(1).is_ok());
        assert!(g.fault_at(FaultSite::OperatorEval).is_ok());
        assert!(g.fault_at(FaultSite::CatalogRead).is_err());
    }

    #[test]
    fn site_names_are_stable() {
        let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "buffer",
                "catalog",
                "operator",
                "spill-write",
                "spill-read",
                "temp-file",
                "wal-append",
                "wal-fsync",
                "snapshot-write",
                "snapshot-rename",
                "recovery-read"
            ]
        );
        for site in FaultSite::DURABILITY {
            assert!(FaultSite::ALL.contains(&site));
        }
    }

    #[test]
    fn budget_refuses_before_counting_so_peak_stays_bounded() {
        let g = ResourceGovernor::new(&Limits::none().with_memory_bytes(100), None);
        assert!(g.tracks_memory());
        g.admit(60).unwrap();
        g.admit(40).unwrap();
        let err = g.admit(1).unwrap_err();
        match err {
            EvalError::ResourceExhausted {
                resource,
                limit,
                used,
            } => {
                assert_eq!(resource, MEMORY_BUDGET);
                assert_eq!((limit, used), (100, 101));
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(g.live_buffer_bytes(), 100, "refused bytes are not counted");
        assert_eq!(g.peak_buffer_bytes(), 100);
        assert_eq!(g.budget_denials(), 1);
        // Releasing makes room again: the engine stays usable.
        g.release(50);
        g.admit(25).unwrap();
        assert_eq!(g.live_buffer_bytes(), 75);
    }

    #[test]
    fn spill_write_cap_is_cumulative_and_refuses_over_limit() {
        let g = ResourceGovernor::new(&Limits::none().with_spill_bytes(64), None);
        g.add_spill_write(40).unwrap();
        g.add_spill_write(24).unwrap();
        let err = g.add_spill_write(1).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::ResourceExhausted {
                    resource: "spill budget (bytes)",
                    ..
                }
            ),
            "wrong error: {err:?}"
        );
        assert_eq!(g.spill_bytes_written(), 64, "refused writes not counted");
        g.add_spill_partitions(3);
        g.add_merge_pass();
        assert_eq!((g.spill_partitions(), g.merge_passes()), (3, 1));
    }
}
