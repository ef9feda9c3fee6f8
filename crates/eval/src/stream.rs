//! Pull-based streams: the lazy layer under the interpreter.
//!
//! The paper's Pseudocodes 1–2 define clause semantics as *iteration* over
//! binding environments; this module gives the interpreter that shape at
//! runtime, with exactly one pull protocol: [`Stream::next_batch`] appends
//! up to `max` rows into a caller-owned buffer in one virtual call.
//! Full-consumption operators (sort fill, aggregation, DISTINCT) pull
//! their input ~[`DEFAULT_BATCH_SIZE`] rows at a time and so amortize
//! dynamic dispatch, governor ticks, and stat increments; a session with
//! `batch_size: 1` is the row-at-a-time engine — through this same code,
//! not a second path.
//!
//! **Bounded pulls.** A stream never pulls more than `max` rows per call
//! from its input, so a quota-aware consumer (`LIMIT k`) that passes a
//! small `max` stops the scan underneath it (`tests/streaming.rs` pins
//! it). Consumers that decide on one row — `EXISTS`, the scalar-subquery
//! 0/1/many probe, `IN`'s stop-at-first-TRUE, and the left side of a
//! correlated FROM or a join, which must not read ahead of a LIMIT
//! above it — pull through [`next_one`], which is `next_batch(_, 1)`.
//!
//! **Exhaustion.** A call that appends zero rows and returns `Ok` means
//! the stream is exhausted; appending fewer than `max` rows does not.
//!
//! **Errors.** A stream that returns `Err` is *finished*: the buffer
//! holds the valid rows produced before the error (in pull order), and
//! consumers must not pull again — streams make no promise about what a
//! further call returns.
//!
//! **No per-row adapter.** The adapters here move rows without running
//! an expression; a WHERE, projection, sort key or join side runs in the
//! interpreter's one row loop (`FusedScan`), over a slice or any stream.
//!
//! True pipeline breakers (ORDER BY, GROUP BY, window, DISTINCT, hash-join
//! and set-op build sides) still buffer, but only ever through
//! [`TrackedBuffer`]/[`MatGauge`], which feed the `peak_live_bindings`
//! gauge and per-operator high-water counters in [`crate::ExecStats`] and
//! are where spilling hooks in.

use std::time::Instant;

use sqlpp_plan::CoreOp;
use sqlpp_value::Value;

use crate::env::Env;
use crate::error::EvalError;
use crate::govern::ResourceGovernor;
use crate::stats::StatsCollector;

/// The default unit of pull for full-consumption operators.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Within a batch materialization loop, tick the governor once per this
/// many rows so one huge batch cannot blow past a deadline unchecked.
pub(crate) const BATCH_TICK_ROWS: usize = 64;

/// A pull stream of `T` rows.
pub(crate) trait Stream<T> {
    /// Appends up to `max` rows to `out`. Appending zero rows (with `Ok`)
    /// means the stream is exhausted; fewer than `max` rows does *not*.
    /// On `Err` the rows appended before the error are valid and the
    /// stream is finished.
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError>;
}

impl<T, S: Stream<T> + ?Sized> Stream<T> for Box<S> {
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        (**self).next_batch(out, max)
    }
}

/// Pulls exactly one row — the one-row consumer's view of a stream.
/// `None` means exhausted. An error wins over a row that arrived with it.
pub(crate) fn next_one<T>(stream: &mut (impl Stream<T> + ?Sized)) -> Result<Option<T>, EvalError> {
    let mut one = Vec::with_capacity(1);
    stream.next_batch(&mut one, 1)?;
    Ok(one.pop())
}

/// Pulls a stream to exhaustion, `batch_size` rows per call, appending
/// straight into the returned vector — full consumption with no per-row
/// step in between.
pub(crate) fn collect<T>(
    mut stream: Box<dyn Stream<T> + '_>,
    batch_size: usize,
) -> Result<Vec<T>, EvalError> {
    let mut out = Vec::new();
    loop {
        let before = out.len();
        stream.next_batch(&mut out, batch_size)?;
        if out.len() == before {
            return Ok(out);
        }
    }
}

/// Fully drains a stream, calling `f` per row. Rows that arrived before a
/// mid-batch error are processed first, so the order of effects is pull
/// order at every batch size.
pub(crate) fn drain_batched<T>(
    mut stream: Box<dyn Stream<T> + '_>,
    batch_size: usize,
    mut f: impl FnMut(T) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let mut batch = Vec::new();
    loop {
        let pulled = stream.next_batch(&mut batch, batch_size);
        if batch.is_empty() {
            return pulled;
        }
        batch.drain(..).try_for_each(&mut f)?;
        pulled?;
    }
}

/// The single shim that lifts a plain iterator into a [`Stream`].
pub(crate) struct Rows<I>(pub(crate) I);

impl<I, T> Stream<T> for Rows<I>
where
    I: Iterator<Item = Result<T, EvalError>>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        for _ in 0..max {
            match self.0.next() {
                None => break,
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
            }
        }
        Ok(())
    }
}

/// A lazy stream of binding environments.
pub(crate) type BindingStream<'s> = Box<dyn Stream<Env> + 's>;

/// A lazy stream of output values (elements of a bag under construction).
pub(crate) type ValueStream<'s> = Box<dyn Stream<Value> + 's>;

/// Boxes a plain iterator as a stream.
pub(crate) fn boxed<'s, T: 's>(
    it: impl Iterator<Item = Result<T, EvalError>> + 's,
) -> Box<dyn Stream<T> + 's> {
    Box::new(Rows(it))
}

/// A stream that has already failed: yields the error once, then ends.
pub(crate) fn failed<'s, T: 's>(e: EvalError) -> Box<dyn Stream<T> + 's> {
    boxed(std::iter::once(Err(e)))
}

/// The empty stream.
pub(crate) fn empty<'s, T: 's>() -> Box<dyn Stream<T> + 's> {
    boxed(std::iter::empty())
}

/// Streams an already-materialized vector, batch-aware: a `next_batch`
/// moves a whole chunk without per-row dispatch.
pub(crate) struct VecStream<T> {
    items: std::vec::IntoIter<T>,
}

impl<T> Stream<T> for VecStream<T> {
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        out.extend(self.items.by_ref().take(max));
        Ok(())
    }
}

/// Streams an already-materialized vector.
pub(crate) fn from_vec<'s, T: 's>(items: Vec<T>) -> Box<dyn Stream<T> + 's> {
    Box::new(VecStream {
        items: items.into_iter(),
    })
}

/// Concatenation of lazily opened parts — the batch protocol's
/// `flat_map`: `open` yields the next part (or `None` when there are no
/// more) only once the current one is exhausted. UNION ALL and Append
/// open their operands in turn; a left-correlated FROM opens its right
/// side once per left row. A batch fills across part boundaries, so many
/// small parts (an UNNEST of short arrays) still move full batches.
pub(crate) struct Concat<'s, T, F> {
    cur: Option<Box<dyn Stream<T> + 's>>,
    open: F,
    done: bool,
}

impl<'s, T, F> Concat<'s, T, F> {
    pub(crate) fn new(open: F) -> Self {
        Concat {
            cur: None,
            open,
            done: false,
        }
    }
}

impl<'s, T, F> Stream<T> for Concat<'s, T, F>
where
    F: FnMut() -> Option<Box<dyn Stream<T> + 's>>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        while !self.done && out.len() - start < max {
            let Some(cur) = self.cur.as_mut() else {
                self.cur = (self.open)();
                self.done = self.cur.is_none();
                continue;
            };
            let before = out.len();
            cur.next_batch(out, max - (before - start))?;
            if out.len() == before {
                self.cur = None;
            }
        }
        Ok(())
    }
}

/// LIMIT/OFFSET as a stream adapter: skips `offset` rows, then yields at
/// most `limit`, and — crucially — stops *pulling* from its input once the
/// quota is met. Errors pass through without consuming quota. Every inner
/// pull is bounded by `remaining skip + remaining quota`, so batching never
/// over-pulls a limited scan.
pub(crate) struct Limited<I> {
    inner: I,
    skip: usize,
    take: Option<usize>,
}

impl<I> Limited<I> {
    pub(crate) fn new(inner: I, offset: usize, limit: Option<usize>) -> Self {
        Limited {
            inner,
            skip: offset,
            take: limit,
        }
    }
}

impl<I, T> Stream<T> for Limited<I>
where
    I: Stream<T>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        let mut produced = 0;
        while produced < max {
            if self.take == Some(0) {
                break;
            }
            let quota = self.take.unwrap_or(max - produced).min(max - produced);
            let want = quota.saturating_add(self.skip);
            let start = out.len();
            let r = self.inner.next_batch(out, want);
            let got = out.len() - start;
            let dropped = self.skip.min(got);
            if dropped > 0 {
                out.drain(start..start + dropped);
                self.skip -= dropped;
            }
            let kept = got - dropped;
            if let Some(t) = &mut self.take {
                *t -= kept.min(*t);
            }
            produced += kept;
            if let Err(e) = r {
                self.take = Some(0);
                return Err(e);
            }
            if got == 0 {
                break;
            }
        }
        Ok(())
    }
}

/// Per-operator instrumentation for a stream: counts rows and batches out
/// and wall time spent building the stream (`built` — where a breaker
/// does its work) plus inside this operator's pulls (inclusive of
/// children, as the tree renderer expects), recording one "call" when
/// dropped. Only constructed when stats collection is on, so the ordinary
/// path carries no timer at all. A batched pull pays one timer sample per
/// batch — this is where per-row stat overhead amortizes.
pub(crate) struct Instrumented<'s, I> {
    inner: I,
    stats: &'s StatsCollector,
    key: u32,
    rows: u64,
    batches: u64,
    ns: u64,
    /// The operator is a FROM: its rows also count as `bindings_produced`.
    count_bindings: bool,
}

impl<'s, I> Instrumented<'s, I> {
    pub(crate) fn new(
        inner: I,
        stats: &'s StatsCollector,
        op: &CoreOp,
        count_bindings: bool,
        built: Instant,
    ) -> Self {
        Instrumented {
            inner,
            stats,
            key: stats.key_for(op),
            rows: 0,
            batches: 0,
            ns: built.elapsed().as_nanos() as u64,
            count_bindings,
        }
    }

    /// Counts one pull that emitted `rows` in `ns` — also for a stream
    /// the operator stands for but does not wrap (the fused spine's).
    pub(crate) fn credit(&mut self, rows: u64, ns: u64) {
        self.ns += ns;
        self.rows += rows;
        if rows > 0 {
            self.batches += 1;
            self.stats.count(|s| s.batches_produced += 1);
        }
    }
}

impl<'s, I, T> Stream<T> for Instrumented<'s, I>
where
    I: Stream<T>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        let t = Instant::now();
        let r = self.inner.next_batch(out, max);
        self.credit((out.len() - start) as u64, t.elapsed().as_nanos() as u64);
        r
    }
}

impl<'s, I> Drop for Instrumented<'s, I> {
    fn drop(&mut self) {
        self.stats.op(self.key, |o| {
            o.calls += 1;
            o.rows_out += self.rows;
            o.ns += self.ns;
            o.batches += self.batches;
        });
        if self.count_bindings {
            self.stats.count(|s| s.bindings_produced += self.rows);
        }
    }
}

/// A materialization gauge: every row a pipeline breaker holds live is
/// counted into the collector's `peak_live_bindings` high-water mark (and,
/// when the breaker is a plan operator, into that operator's `peak_rows`),
/// and — when a memory budget or fault hook is active — its estimated
/// bytes are *admitted* through the [`ResourceGovernor`], which can
/// refuse. Refused rows are never counted, so the live total provably
/// stays at or below the budget. Dropping the gauge releases what it holds
/// from both accounts — exactly the lifecycle a spill file would have.
pub(crate) struct MatGauge<'s> {
    stats: Option<&'s StatsCollector>,
    govern: Option<&'s ResourceGovernor>,
    key: Option<u32>,
    /// Rows counted into the collector (zero without one).
    rows: u64,
    /// Estimated bytes admitted through the governor (zero without one).
    bytes: u64,
}

impl<'s> MatGauge<'s> {
    pub(crate) fn new(
        stats: Option<&'s StatsCollector>,
        govern: Option<&'s ResourceGovernor>,
        op: Option<&CoreOp>,
    ) -> Self {
        let key = match (stats, op) {
            (Some(st), Some(op)) => Some(st.key_for(op)),
            _ => None,
        };
        MatGauge {
            stats,
            govern,
            key,
            rows: 0,
            bytes: 0,
        }
    }

    /// The bytes to admit for a row: `estimate()` when admissions reach
    /// the governor, else 0 without running it — so an unbudgeted query
    /// never sizes a row.
    pub(crate) fn size(&self, estimate: impl FnOnce() -> u64) -> u64 {
        self.govern.map_or(0, |_| estimate())
    }

    /// The single admission call: counts `rows` more rows as live in this
    /// buffer and admits their `bytes` (from [`MatGauge::size`]) through
    /// the governor. On refusal (budget exceeded or injected fault)
    /// nothing is counted and the caller must not buffer the rows.
    pub(crate) fn add(&mut self, rows: u64, bytes: u64) -> Result<(), EvalError> {
        if let Some(g) = self.govern {
            g.admit(bytes)?;
            self.bytes += bytes;
        }
        if let Some(st) = self.stats {
            self.rows += rows;
            st.buffer_grow(rows);
            if let Some(k) = self.key {
                st.op(k, |o| o.peak_rows = o.peak_rows.max(self.rows));
            }
        }
        Ok(())
    }

    /// Releases `rows` rows and `bytes` estimated bytes from the live
    /// accounts *before* the gauge is dropped — a top-k heap evicting one
    /// entry. The recorded peaks are unaffected.
    pub(crate) fn remove(&mut self, rows: u64, bytes: u64) {
        let (rows, bytes) = (rows.min(self.rows), bytes.min(self.bytes));
        if let Some(st) = self.stats {
            st.buffer_shrink(rows);
        }
        if let Some(g) = self.govern {
            g.release(bytes);
        }
        self.rows -= rows;
        self.bytes -= bytes;
    }

    /// Releases everything the gauge holds — the spill hook: a breaker
    /// that writes its working set to disk stops holding those rows in
    /// memory, so the budget sees them leave immediately.
    pub(crate) fn release_all(&mut self) {
        self.remove(self.rows, self.bytes);
    }
}

impl<'s> Drop for MatGauge<'s> {
    fn drop(&mut self) {
        self.release_all();
    }
}

/// The one buffer type non-spilling pipeline breakers materialize
/// through: a `Vec` whose occupancy is tracked (and budget-governed, each
/// row sized by `size`) by a [`MatGauge`].
pub(crate) struct TrackedBuffer<'s, T> {
    items: Vec<T>,
    gauge: MatGauge<'s>,
    size: fn(&T) -> u64,
}

impl<'s, T> TrackedBuffer<'s, T> {
    pub(crate) fn new(gauge: MatGauge<'s>, size: fn(&T) -> u64) -> Self {
        TrackedBuffer {
            items: Vec::new(),
            gauge,
            size,
        }
    }

    /// Admits the row through the gauge *before* storing it; a refused
    /// row is dropped and the buffer is unchanged.
    pub(crate) fn push(&mut self, item: T) -> Result<(), EvalError> {
        let bytes = self.gauge.size(|| (self.size)(&item));
        self.gauge.add(1, bytes)?;
        self.items.push(item);
        Ok(())
    }

    /// Releases the rows from the live gauge (their peak is already
    /// recorded) and hands the vector to the caller.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.items
    }
}

/// Deadline/cancellation enforcement as a stream adapter: every pull
/// ticks the governor (a counter bump, with a real clock/token inspection
/// only at the amortized interval) before pulling the inner stream, and
/// then once per [`BATCH_TICK_ROWS`] rows the batch produced, so a full
/// batch can never advance the pipeline by more than 64 rows between
/// deadline/cancel observations — while the *real* clock/token inspection
/// still amortizes to roughly once per 4096 rows. Only constructed when a
/// deadline or token is attached, so ungoverned pulls carry no overhead.
/// Fused: after the inner stream ends or errors, no further governor
/// errors are manufactured.
pub(crate) struct Governed<'s, I> {
    inner: I,
    govern: &'s ResourceGovernor,
    done: bool,
}

impl<'s, I> Governed<'s, I> {
    pub(crate) fn new(inner: I, govern: &'s ResourceGovernor) -> Self {
        Governed {
            inner,
            govern,
            done: false,
        }
    }
}

impl<'s, I, T> Stream<T> for Governed<'s, I>
where
    I: Stream<T>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        if self.done {
            return Ok(());
        }
        if let Err(e) = self.govern.tick() {
            self.done = true;
            return Err(e);
        }
        let start = out.len();
        let r = self.inner.next_batch(out, max);
        let got = out.len() - start;
        if r.is_err() || got == 0 {
            self.done = true;
        }
        r?;
        if let Err(e) = self.govern.tick_rows(got as u64) {
            self.done = true;
            return Err(e);
        }
        Ok(())
    }
}
