//! Out-of-core execution: spill files, external merge-sort, and Grace
//! partitioning (DESIGN.md §5.12).
//!
//! The governor (PR 5) made "budget exceeded" a refusal; this module makes
//! it a *plan B*. When a session enables spilling, every pipeline breaker
//! that takes a memory-budget refusal at its [`MatGauge`] moves part of its
//! working set to temp files — serialized with the `ion_lite` binary format
//! from `sqlpp-formats` — and streams it back later:
//!
//! * **ORDER BY** becomes an external merge-sort: the in-memory chunk is
//!   stable-sorted and written out as a *sorted run* whenever admission is
//!   refused; [`ExternalSorter::finish`] then k-way-merges the runs (fan-in
//!   capped, extra passes counted in `merge_passes`) with a run-index
//!   tie-break that preserves exactly the stable-sort order the in-memory
//!   path produces.
//! * **GROUP BY / hash-join builds** run through the one [`keyed_build`]
//!   routine: records accumulate in memory until admission is refused,
//!   then scatter Grace-style through [`GracePartitioner`] — routed to one
//!   of `SpillConfig::PARTITIONS` files by a *seeded* structural hash of
//!   their key — and each partition is rebuilt by the same routine one level deeper
//!   (new seed per depth), so a skewed partition that alone exceeds the
//!   budget re-partitions recursively.
//!
//! Temp files are delete-on-drop ([`SpillFile`]), so error paths —
//! including injected faults at the three spill sites ([`FaultSite`]
//! `SpillWrite`/`SpillRead`/`TempFileCreate`) — never leak files.
//! Accounting invariant: rows admitted through a gauge are released
//! ([`MatGauge::release_all`]) the moment they are written out, so *peak
//! tracked memory stays at or below the budget* even on 10×-budget inputs
//! (`tests/out_of_core.rs` pins it).

use std::cmp::Ordering;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use sqlpp_formats::ion_lite::{from_ion_lite, to_ion_lite};
use sqlpp_plan::CoreSortKey;
use sqlpp_value::cmp::total_cmp;
use sqlpp_value::hash::hash_value;
use sqlpp_value::Value;

use crate::error::EvalError;
use crate::govern::{FaultSite, ResourceGovernor, MEMORY_BUDGET};
use crate::stream::MatGauge;

/// Session-level spill policy: where temp files go. Spilling is opt-in —
/// without a `SpillConfig` on the session, a budget overrun stays a hard
/// [`EvalError::ResourceExhausted`] refusal (the PR 5 contract).
#[derive(Debug, Clone, Default)]
pub struct SpillConfig {
    /// Directory for spill temp files. `None` = the system temp dir.
    pub dir: Option<PathBuf>,
}

impl SpillConfig {
    /// Grace fan-out: how many partition files a spilling hash build or
    /// GROUP BY scatters into per level.
    pub const PARTITIONS: usize = 8;
    /// External-sort merge fan-in: how many sorted runs one k-way merge
    /// pass consumes.
    pub const SORT_FANIN: usize = 8;
    /// Maximum Grace re-partitioning depth. A partition that still
    /// exceeds the budget after this many splits (pathological key skew —
    /// e.g. every row sharing one key) surfaces the original refusal.
    pub const MAX_RECURSION: u32 = 4;
}

/// Everything a spill site needs: the session policy plus the governor
/// (fault sites, spill-write cap, spill counters).
#[derive(Clone, Copy)]
pub(crate) struct SpillCtx<'s> {
    pub(crate) config: &'s SpillConfig,
    pub(crate) govern: &'s ResourceGovernor,
}

/// Whether an error is a *memory-budget* refusal — the only error spilling
/// may absorb. Injected faults, deadline/cancellation, spill-cap and
/// nesting-depth errors all propagate unchanged, so chaos determinism and
/// the governor's other contracts survive the spill path.
pub(crate) fn is_memory_refusal(e: &EvalError) -> bool {
    matches!(e, EvalError::ResourceExhausted { resource, .. } if *resource == MEMORY_BUDGET)
}

/// Cheap recursive estimate of a value's in-memory footprint, the unit of
/// the memory budget. Deliberately rough (tag + inline payload +
/// recursion); the serialized `ion_lite` size at spill time is the
/// precise twin.
pub(crate) fn approx_value_bytes(v: &Value) -> u64 {
    match v {
        Value::Missing | Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Decimal(_) => 17,
        Value::Str(s) => 9 + s.len() as u64,
        Value::Bytes(b) => 9 + b.len() as u64,
        Value::Array(items) | Value::Bag(items) => {
            9 + items.iter().map(approx_value_bytes).sum::<u64>()
        }
        Value::Tuple(t) => {
            9 + t
                .iter()
                .map(|(k, v)| 9 + k.len() as u64 + approx_value_bytes(v))
                .sum::<u64>()
        }
    }
}

/// Estimated footprint of a record's extracted key values.
pub(crate) fn keys_bytes(kv: &[Value]) -> u64 {
    kv.iter().map(approx_value_bytes).sum()
}

/// The ORDER BY comparator over pre-extracted key vectors: per key, absent
/// values (MISSING and NULL) obey `nulls_first` as a block; present-vs-
/// present and absent-vs-absent use the cross-type total order, reversed
/// under DESC. Shared by the in-memory sort, the bounded top-k heap, and
/// the k-way run merge — one comparator, so all three provably agree.
pub(crate) fn cmp_sort_keys(keys: &[CoreSortKey], a: &[Value], b: &[Value]) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let (av, bv) = (&a[i], &b[i]);
        let (aa, ba) = (av.is_absent(), bv.is_absent());
        let ord = match (aa, ba) {
            (true, false) => {
                if k.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if k.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            _ => {
                let o = total_cmp(av, bv);
                if k.desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Structural hash of a key tuple under a partitioning `seed`. Different
/// seeds give (practically) independent partition assignments, which is
/// what makes recursive Grace re-partitioning effective on skew that is
/// *hash* skew rather than identical-key skew.
pub(crate) fn seeded_hash(vals: &[Value], seed: u64) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;
    let mut h = DefaultHasher::new();
    h.write_u64(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(seed.wrapping_add(1)));
    for v in vals {
        hash_value(v, &mut h);
    }
    h.finish()
}

// ---------------- temp files and record framing ----------------

/// Process-wide sequence for unique spill file names.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A spill temp file, deleted on drop — every owner (writer, run, reader)
/// holds it through this guard, so no code path can leak a file.
struct SpillFile {
    path: PathBuf,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Writes length-prefixed `ion_lite` records to a fresh spill temp file.
pub(crate) struct SpillWriter {
    file: SpillFile,
    w: BufWriter<File>,
    records: u64,
}

impl SpillWriter {
    /// Creates a temp file in the configured spill directory
    /// ([`FaultSite::TempFileCreate`]) and counts it as a spill partition.
    pub(crate) fn create(ctx: &SpillCtx<'_>) -> Result<SpillWriter, EvalError> {
        ctx.govern.fault_at(FaultSite::TempFileCreate)?;
        let dir = ctx.config.dir.clone().unwrap_or_else(std::env::temp_dir);
        let seq = SPILL_SEQ.fetch_add(1, AtomicOrdering::Relaxed);
        let path = dir.join(format!("sqlpp-spill-{}-{}.bin", std::process::id(), seq));
        let f = File::create(&path)
            .map_err(|e| EvalError::Resource(format!("spill temp-file create failed: {e}")))?;
        ctx.govern.add_spill_partitions(1);
        Ok(SpillWriter {
            file: SpillFile { path },
            w: BufWriter::new(f),
            records: 0,
        })
    }

    /// Appends one record ([`FaultSite::SpillWrite`]); the encoded length
    /// plus the 4-byte prefix is charged against the spill-write cap.
    pub(crate) fn write(&mut self, ctx: &SpillCtx<'_>, record: &Value) -> Result<(), EvalError> {
        ctx.govern.fault_at(FaultSite::SpillWrite)?;
        let bytes = to_ion_lite(record);
        ctx.govern.add_spill_write(4 + bytes.len() as u64)?;
        let len = u32::try_from(bytes.len())
            .map_err(|_| EvalError::Resource("spill record exceeds 4GiB".into()))?;
        self.w
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.w.write_all(&bytes))
            .map_err(|e| EvalError::Resource(format!("spill write failed: {e}")))?;
        self.records += 1;
        Ok(())
    }

    /// Flushes and seals the file into a readable [`SpillRun`].
    pub(crate) fn finish(mut self) -> Result<SpillRun, EvalError> {
        self.w
            .flush()
            .map_err(|e| EvalError::Resource(format!("spill write failed: {e}")))?;
        Ok(SpillRun {
            file: self.file,
            records: self.records,
        })
    }
}

/// A sealed spill file: a sorted run (external sort) or one Grace
/// partition. Consumed by opening it for reading; dropped unopened, the
/// file is removed.
pub(crate) struct SpillRun {
    file: SpillFile,
    records: u64,
}

impl SpillRun {
    /// Records in the run.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Opens the run for reading; the temp file lives until the reader is
    /// dropped.
    pub(crate) fn open(self, _ctx: &SpillCtx<'_>) -> Result<SpillReader, EvalError> {
        let f = File::open(&self.file.path)
            .map_err(|e| EvalError::Resource(format!("spill read failed: {e}")))?;
        Ok(SpillReader {
            _file: self.file,
            r: BufReader::new(f),
            remaining: self.records,
        })
    }
}

/// Streams records back out of one spill file.
pub(crate) struct SpillReader {
    _file: SpillFile,
    r: BufReader<File>,
    remaining: u64,
}

impl SpillReader {
    /// Reads the next record ([`FaultSite::SpillRead`]), or `None` at the
    /// end of the run. Truncated or undecodable data is a typed resource
    /// error, never a panic.
    pub(crate) fn next(&mut self, ctx: &SpillCtx<'_>) -> Result<Option<Value>, EvalError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        ctx.govern.fault_at(FaultSite::SpillRead)?;
        let mut len = [0u8; 4];
        self.r
            .read_exact(&mut len)
            .map_err(|e| EvalError::Resource(format!("spill read failed: {e}")))?;
        let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
        self.r
            .read_exact(&mut buf)
            .map_err(|e| EvalError::Resource(format!("spill read failed: {e}")))?;
        let v = from_ion_lite(&buf)
            .map_err(|e| EvalError::Resource(format!("spill read failed: corrupt record: {e}")))?;
        self.remaining -= 1;
        Ok(Some(v))
    }
}

// ---------------- external merge-sort ----------------

/// How a breaker's payload row moves across the spill boundary. The
/// encode/decode pair must round-trip through `ion_lite`'s documented
/// value subset. What a row weighs in the memory budget is its breaker's
/// to say.
pub(crate) trait SpillCodec {
    /// The in-memory row type (a binding `Env`, or an output element).
    type Row;
    /// Serializes a row to a spillable value.
    fn encode(&self, row: Self::Row) -> Value;
    /// Rebuilds a row from its spilled form.
    fn decode(&self, v: Value) -> Result<Self::Row, EvalError>;
}

/// Frames a keyed record as `[keys-array, payload]` for one spill write —
/// the shape sorted runs and Grace partitions share.
fn encode_keyed_record(kv: &[Value], payload: Value) -> Value {
    Value::Array(vec![Value::Array(kv.to_vec()), payload])
}

/// Inverse of [`encode_keyed_record`].
fn decode_keyed_record(v: Value) -> Result<(Vec<Value>, Value), EvalError> {
    match v {
        Value::Array(mut parts) if parts.len() == 2 => {
            let payload = parts.pop().expect("len checked");
            match parts.pop().expect("len checked") {
                Value::Array(kv) => Ok((kv, payload)),
                other => Err(EvalError::Resource(format!(
                    "spill read failed: malformed sort record key {other:?}"
                ))),
            }
        }
        other => Err(EvalError::Resource(format!(
            "spill read failed: malformed sort record {other:?}"
        ))),
    }
}

/// The spillable ORDER BY buffer: rows accumulate in one gauge-tracked
/// chunk; a memory-budget refusal (with spilling enabled) stable-sorts the
/// chunk, writes it out as a sorted run, releases it from the budget, and
/// keeps going. `finish` merges the runs. Without spilling (or when the
/// budget was never hit) this is behaviorally identical to the old
/// `TrackedBuffer` + stable sort.
pub(crate) struct ExternalSorter<'s, 'k, C: SpillCodec> {
    ctx: Option<SpillCtx<'s>>,
    keys: &'k [CoreSortKey],
    codec: C,
    gauge: MatGauge<'s>,
    chunk: Vec<(Vec<Value>, C::Row)>,
    runs: Vec<SpillRun>,
}

impl<'s, 'k, C: SpillCodec> ExternalSorter<'s, 'k, C> {
    pub(crate) fn new(
        ctx: Option<SpillCtx<'s>>,
        keys: &'k [CoreSortKey],
        codec: C,
        gauge: MatGauge<'s>,
    ) -> Self {
        ExternalSorter {
            ctx,
            keys,
            codec,
            gauge,
            chunk: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Whether any run was written (the `EXPLAIN ANALYZE` spilled tag).
    pub(crate) fn spilled(&self) -> bool {
        !self.runs.is_empty()
    }

    /// Admits one row, charged its keys plus `size_of(&row)` bytes; on a
    /// memory-budget refusal with spilling enabled, spills the current
    /// chunk as a sorted run and retries once.
    pub(crate) fn push(
        &mut self,
        kv: Vec<Value>,
        row: C::Row,
        size_of: impl FnOnce(&C::Row) -> u64,
    ) -> Result<(), EvalError> {
        let bytes = self.gauge.size(|| keys_bytes(&kv) + size_of(&row));
        if let Err(e) = self.gauge.add(1, bytes) {
            if self.ctx.is_none() || !is_memory_refusal(&e) || self.chunk.is_empty() {
                return Err(e);
            }
            self.spill_chunk()?;
            self.gauge.add(1, bytes)?;
        }
        self.chunk.push((kv, row));
        Ok(())
    }

    /// Stable-sorts the in-memory chunk, writes it out as one sorted run,
    /// and releases its rows from the budget.
    fn spill_chunk(&mut self) -> Result<(), EvalError> {
        let ctx = self.ctx.as_ref().expect("spill_chunk requires a ctx");
        let keys = self.keys;
        self.chunk
            .sort_by(|(a, _), (b, _)| cmp_sort_keys(keys, a, b));
        let mut w = SpillWriter::create(ctx)?;
        for (kv, row) in self.chunk.drain(..) {
            w.write(ctx, &encode_keyed_record(&kv, self.codec.encode(row)))?;
        }
        self.runs.push(w.finish()?);
        self.gauge.release_all();
        Ok(())
    }

    /// Produces the fully sorted payloads. In-memory case: release the
    /// gauge, stable-sort, hand over (exactly the pre-spill behavior).
    /// Spilled case: flush the tail chunk as a final run, then k-way-merge
    /// — fan-in capped, with extra passes merging the *oldest* runs first
    /// and re-inserting the result at the front, so the run-index
    /// tie-break always equals input order and the merge reproduces the
    /// stable sort bit-for-bit.
    pub(crate) fn finish(mut self) -> Result<Vec<C::Row>, EvalError> {
        if self.runs.is_empty() {
            let keys = self.keys;
            let mut chunk = std::mem::take(&mut self.chunk);
            drop(self.gauge);
            chunk.sort_by(|(a, _), (b, _)| cmp_sort_keys(keys, a, b));
            return Ok(chunk.into_iter().map(|(_, row)| row).collect());
        }
        if !self.chunk.is_empty() {
            self.spill_chunk()?;
        }
        let ctx = *self.ctx.as_ref().expect("runs exist only with a ctx");
        let keys = self.keys;
        let mut runs = std::mem::take(&mut self.runs);
        drop(self.gauge);
        let fanin = SpillConfig::SORT_FANIN;
        while runs.len() > fanin {
            let batch: Vec<SpillRun> = runs.drain(..fanin).collect();
            let mut out = SpillWriter::create(&ctx)?;
            let mut merge = KWayMerge::new(&ctx, keys, batch)?;
            while let Some((kv, payload)) = merge.next(&ctx)? {
                out.write(&ctx, &encode_keyed_record(&kv, payload))?;
            }
            ctx.govern.add_merge_pass();
            runs.insert(0, out.finish()?);
        }
        let mut merge = KWayMerge::new(&ctx, keys, runs)?;
        let mut out = Vec::new();
        while let Some((_, payload)) = merge.next(&ctx)? {
            out.push(self.codec.decode(payload)?);
        }
        ctx.govern.add_merge_pass();
        Ok(out)
    }
}

/// Streaming k-way merge of sorted runs. Fan-in is small (the config
/// cap), so the min is found by linear scan; ties between runs resolve to
/// the lowest run index, which — runs being written in input order —
/// makes the merge stable.
struct KWayMerge<'k> {
    keys: &'k [CoreSortKey],
    readers: Vec<SpillReader>,
    heads: Vec<Option<(Vec<Value>, Value)>>,
}

impl<'k> KWayMerge<'k> {
    fn new(
        ctx: &SpillCtx<'_>,
        keys: &'k [CoreSortKey],
        runs: Vec<SpillRun>,
    ) -> Result<Self, EvalError> {
        let mut readers = Vec::with_capacity(runs.len());
        for run in runs {
            readers.push(run.open(ctx)?);
        }
        let mut m = KWayMerge {
            keys,
            readers,
            heads: Vec::new(),
        };
        for i in 0..m.readers.len() {
            let head = m.advance(ctx, i)?;
            m.heads.push(head);
        }
        Ok(m)
    }

    fn advance(
        &mut self,
        ctx: &SpillCtx<'_>,
        i: usize,
    ) -> Result<Option<(Vec<Value>, Value)>, EvalError> {
        match self.readers[i].next(ctx)? {
            None => Ok(None),
            Some(v) => Ok(Some(decode_keyed_record(v)?)),
        }
    }

    fn next(&mut self, ctx: &SpillCtx<'_>) -> Result<Option<(Vec<Value>, Value)>, EvalError> {
        let mut best: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some((kv, _)) = head else { continue };
            match best {
                None => best = Some(i),
                Some(b) => {
                    let (bkv, _) = self.heads[b].as_ref().expect("best head present");
                    if cmp_sort_keys(self.keys, kv, bkv) == Ordering::Less {
                        best = Some(i);
                    }
                }
            }
        }
        let Some(i) = best else { return Ok(None) };
        let item = self.heads[i].take().expect("best head present");
        self.heads[i] = self.advance(ctx, i)?;
        Ok(Some(item))
    }
}

// ---------------- Grace partitioning ----------------

/// Scatters keyed records across `SpillConfig::PARTITIONS` spill files by
/// seeded structural key hash — the Grace building block under [`keyed_build`]. Each level of recursive re-partitioning uses a new seed,
/// so a partition that was one hash bucket at depth *d* spreads across
/// all files at depth *d+1*.
pub(crate) struct GracePartitioner {
    writers: Vec<SpillWriter>,
    seed: u64,
}

impl GracePartitioner {
    pub(crate) fn new(ctx: &SpillCtx<'_>, seed: u64) -> Result<Self, EvalError> {
        let n = SpillConfig::PARTITIONS;
        let mut writers = Vec::with_capacity(n);
        for _ in 0..n {
            writers.push(SpillWriter::create(ctx)?);
        }
        Ok(GracePartitioner { writers, seed })
    }

    /// The partition index `key` routes to at this partitioner's seed.
    pub(crate) fn route(&self, key: &[Value]) -> usize {
        (seeded_hash(key, self.seed) as usize) % self.writers.len()
    }

    /// Writes one keyed record into the partition its key routes to.
    pub(crate) fn write(
        &mut self,
        ctx: &SpillCtx<'_>,
        key: &[Value],
        payload: Value,
    ) -> Result<(), EvalError> {
        let idx = self.route(key);
        self.writers[idx].write(ctx, &encode_keyed_record(key, payload))
    }

    /// Seals all partitions (empty ones included — a LEFT-join probe must
    /// still scan them to pad unmatched rows).
    pub(crate) fn finish(self) -> Result<Vec<SpillRun>, EvalError> {
        self.writers.into_iter().map(SpillWriter::finish).collect()
    }
}

// ---------------- the one spillable keyed build ----------------

/// A pull source of keyed records: each call fills the caller's buffers
/// with the next record's key values and row, and says whether there was
/// one. The live input at depth 0, a spilled partition at depth ≥ 1.
pub(crate) type KeyedSource<'x, R> =
    dyn FnMut(&mut Vec<Value>, &mut R) -> Result<bool, EvalError> + 'x;

/// Receives the records a [`KeyedTable`] hands back.
pub(crate) type KeyedSink<'x, R> = dyn FnMut(&[Value], R) -> Result<(), EvalError> + 'x;

/// What a keyed breaker accumulates into while its input fits in memory —
/// GROUP BY's insertion-ordered groups, a hash join's build rows — with
/// `C` the codec its records cross the spill boundary by, which the
/// table reads too (a GROUP BY's folds, a build's slice).
pub(crate) trait KeyedTable<C: SpillCodec>: Default {
    /// Takes in the record in `kv` and `row`, which it may leave emptied,
    /// and reports what it newly holds live — `(rows, bytes)`, the bytes
    /// sized through `gauge` (so an unmetered build never sizes a row).
    /// `(0, 0)` means the record only folded into state already held,
    /// and is not admitted at all.
    fn insert(
        &mut self,
        kv: &mut Vec<Value>,
        row: &mut C::Row,
        codec: &C,
        gauge: &MatGauge<'_>,
    ) -> (u64, u64);
    /// Hands every held record back, for the scatter on overflow.
    fn drain(self, sink: &mut KeyedSink<'_, C::Row>) -> Result<(), EvalError>;
}

/// What a keyed breaker does with a spilled partition that fit: the built
/// table, the gauge holding it live, and — for a join — the source of the
/// probe records co-partitioned with it.
pub(crate) type OnFit<'x, 's, T> =
    dyn FnMut(T, MatGauge<'s>, Option<&mut KeyedSource<'_, Value>>) -> Result<(), EvalError> + 'x;

/// Streams a spilled partition back as a [`KeyedSource`].
fn run_source<'x, R>(
    ctx: &'x SpillCtx<'_>,
    reader: &'x mut SpillReader,
    decode: impl Fn(Value) -> Result<R, EvalError> + 'x,
) -> impl FnMut(&mut Vec<Value>, &mut R) -> Result<bool, EvalError> + 'x {
    move |kv, row| {
        let Some(rec) = reader.next(ctx)? else {
            return Ok(false);
        };
        let (keys, payload) = decode_keyed_record(rec)?;
        *kv = keys;
        *row = decode(payload)?;
        Ok(true)
    }
}

/// The budgeted keyed build behind GROUP BY and the hash-join build — the
/// only accumulate → refuse → scatter → recurse loop in the engine.
///
/// Records `source` fills into one pair of buffers are inserted into a
/// `T`, and whatever
/// each one newly holds is admitted through one gauge. If the source
/// drains without a refusal the table (and the gauge holding it live) is
/// returned to the caller. On a memory-budget refusal — with spilling
/// enabled and `depth` within `SpillConfig::MAX_RECURSION`; any other
/// error, and the refusal itself otherwise, propagates — everything held (the refused
/// record included) *and the rest of the same source* is
/// scattered, encoded by `codec`, to a [`GracePartitioner`] seeded by `depth`, the `probe`
/// source (a join's other side) is scattered under the same seed so both
/// sides stay pairwise aligned, and each build run is rebuilt by this
/// same routine one level deeper. A run that fits is handed to `fit`
/// together with its probe run; `Ok(None)` then tells the caller that
/// every partition went through `fit`. Identical-key skew cannot be split
/// by any seed, so past `SpillConfig::MAX_RECURSION` the refusal surfaces.
pub(crate) fn keyed_build<'s, T, C>(
    spill: Option<&SpillCtx<'s>>,
    new_gauge: &dyn Fn() -> MatGauge<'s>,
    codec: &C,
    source: &mut KeyedSource<'_, C::Row>,
    probe: Option<&mut KeyedSource<'_, Value>>,
    depth: u32,
    fit: &mut OnFit<'_, 's, T>,
) -> Result<Option<(T, MatGauge<'s>)>, EvalError>
where
    T: KeyedTable<C>,
    C: SpillCodec<Row: Default>,
{
    let mut gauge = new_gauge();
    let mut table = T::default();
    let (mut kv, mut row) = (Vec::new(), C::Row::default());
    let ctx = loop {
        if !source(&mut kv, &mut row)? {
            return Ok(Some((table, gauge)));
        }
        let (rows, bytes) = table.insert(&mut kv, &mut row, codec, &gauge);
        if rows == 0 && bytes == 0 {
            continue;
        }
        match (gauge.add(rows, bytes), spill) {
            (Ok(()), _) => {}
            (Err(e), Some(ctx)) if is_memory_refusal(&e) && depth <= SpillConfig::MAX_RECURSION => {
                break ctx;
            }
            (Err(e), _) => return Err(e),
        }
    };
    let seed = u64::from(depth);
    let mut builds = GracePartitioner::new(ctx, seed)?;
    table.drain(&mut |kv, row| builds.write(ctx, kv, codec.encode(row)))?;
    drop(gauge);
    while source(&mut kv, &mut row)? {
        builds.write(ctx, &kv, codec.encode(std::mem::take(&mut row)))?;
    }
    let mut probes = match probe {
        None => None,
        Some(probe) => {
            let mut p = GracePartitioner::new(ctx, seed)?;
            let mut payload = Value::Missing;
            while probe(&mut kv, &mut payload)? {
                p.write(ctx, &kv, std::mem::take(&mut payload))?;
            }
            Some(p.finish()?.into_iter())
        }
    };
    for build_run in builds.finish()? {
        let probe_run = probes.as_mut().and_then(Iterator::next);
        // A join partition with no probe rows emits nothing (LEFT pads
        // come from the probe side too); an empty build partition still
        // runs, padding every LEFT probe row.
        if probe_run.as_ref().unwrap_or(&build_run).records() == 0 {
            continue;
        }
        let mut build_reader = build_run.open(ctx)?;
        let mut build_src = run_source(ctx, &mut build_reader, |v| codec.decode(v));
        let mut probe_reader = probe_run.map(|run| run.open(ctx)).transpose()?;
        let mut probe_src = probe_reader.as_mut().map(|r| run_source(ctx, r, Ok));
        let mut probe_src = probe_src.as_mut().map(|f| f as &mut KeyedSource<'_, Value>);
        let fitted = keyed_build(
            spill,
            new_gauge,
            codec,
            &mut build_src,
            probe_src.as_deref_mut(),
            depth + 1,
            fit,
        )?;
        if let Some((table, gauge)) = fitted {
            fit(table, gauge, probe_src)?;
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{FaultInjector, Limits};

    fn ctx_parts<'a>(config: &'a SpillConfig, govern: &'a ResourceGovernor) -> SpillCtx<'a> {
        SpillCtx { config, govern }
    }

    struct IdCodec;
    impl SpillCodec for IdCodec {
        type Row = Value;
        fn encode(&self, row: Value) -> Value {
            row
        }
        fn decode(&self, v: Value) -> Result<Value, EvalError> {
            Ok(v)
        }
    }

    fn asc_key() -> Vec<CoreSortKey> {
        vec![CoreSortKey {
            expr: sqlpp_plan::CoreExpr::Var("x".into()),
            desc: false,
            nulls_first: false,
        }]
    }

    #[test]
    fn writer_reader_roundtrip_and_cleanup() {
        let config = SpillConfig::default();
        let govern = ResourceGovernor::new(&Limits::none(), None);
        let ctx = ctx_parts(&config, &govern);
        let mut w = SpillWriter::create(&ctx).unwrap();
        let path = w.file.path.clone();
        for i in 0..10i64 {
            w.write(&ctx, &Value::Int(i)).unwrap();
        }
        let run = w.finish().unwrap();
        assert_eq!(run.records(), 10);
        assert!(path.exists());
        assert!(govern.spill_bytes_written() > 0);
        assert_eq!(govern.spill_partitions(), 1);
        let mut r = run.open(&ctx).unwrap();
        for i in 0..10i64 {
            assert_eq!(r.next(&ctx).unwrap(), Some(Value::Int(i)));
        }
        assert_eq!(r.next(&ctx).unwrap(), None);
        drop(r);
        assert!(!path.exists(), "temp file must be removed on drop");
    }

    #[test]
    fn unopened_runs_remove_their_files_too() {
        let config = SpillConfig::default();
        let govern = ResourceGovernor::new(&Limits::none(), None);
        let ctx = ctx_parts(&config, &govern);
        let w = SpillWriter::create(&ctx).unwrap();
        let path = w.file.path.clone();
        let run = w.finish().unwrap();
        assert!(path.exists());
        drop(run);
        assert!(!path.exists());
    }

    #[test]
    fn external_sort_under_tiny_budget_matches_in_memory_sort() {
        let config = SpillConfig::default();
        // 300 rows (36 estimated bytes each) through a 7-row budget:
        // dozens of runs, so several merge passes at the fan-in.
        let govern = ResourceGovernor::new(&Limits::none().with_memory_bytes(7 * 36), None);
        let ctx = ctx_parts(&config, &govern);
        let keys = asc_key();
        let gauge = MatGauge::new(None, govern.as_memory_guard(), None);
        let mut sorter = ExternalSorter::new(Some(ctx), &keys, IdCodec, gauge);
        let mut expected: Vec<i64> = Vec::new();
        for i in 0..300i64 {
            let v = (i * 37) % 50; // duplicates exercise stability
            expected.push(v);
            sorter
                .push(
                    vec![Value::Int(v)],
                    Value::Array(vec![Value::Int(v), Value::Int(i)]),
                    approx_value_bytes,
                )
                .unwrap();
        }
        assert!(sorter.spilled());
        let out = sorter.finish().unwrap();
        expected.sort(); // stable
        let got_keys: Vec<i64> = out
            .iter()
            .map(|v| match v {
                Value::Array(parts) => match parts[0] {
                    Value::Int(k) => k,
                    _ => unreachable!(),
                },
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got_keys, expected);
        // Stability: among equal keys, the original sequence numbers
        // (second array slot) must be increasing.
        let mut last: Option<(i64, i64)> = None;
        for v in &out {
            let Value::Array(parts) = v else {
                unreachable!()
            };
            let (Value::Int(k), Value::Int(seq)) = (&parts[0], &parts[1]) else {
                unreachable!()
            };
            if let Some((lk, lseq)) = last {
                if lk == *k {
                    assert!(lseq < *seq, "stability violated at key {k}");
                }
            }
            last = Some((*k, *seq));
        }
        assert!(govern.merge_passes() > 1, "the runs must need extra passes");
        assert_eq!(govern.live_buffer_bytes(), 0, "everything released");
        assert!(
            govern.peak_buffer_bytes() <= 7 * 36,
            "peak stayed within budget"
        );
    }

    #[test]
    fn sorter_without_spill_ctx_propagates_the_refusal() {
        let keys = asc_key();
        // Two 18-byte rows fit, the third is refused.
        let govern = ResourceGovernor::new(&Limits::none().with_memory_bytes(40), None);
        let gauge = MatGauge::new(None, govern.as_memory_guard(), None);
        let mut sorter = ExternalSorter::new(None, &keys, IdCodec, gauge);
        sorter
            .push(vec![Value::Int(1)], Value::Int(1), approx_value_bytes)
            .unwrap();
        sorter
            .push(vec![Value::Int(2)], Value::Int(2), approx_value_bytes)
            .unwrap();
        let err = sorter
            .push(vec![Value::Int(3)], Value::Int(3), approx_value_bytes)
            .unwrap_err();
        assert!(is_memory_refusal(&err), "wrong error: {err:?}");
    }

    #[test]
    fn injected_spill_faults_surface_and_leak_nothing() {
        for site in ["spill-write", "temp-file"] {
            let config = SpillConfig::default();
            let inj = FaultInjector::new(move |s| {
                (s.name() == site).then(|| EvalError::Resource(format!("injected fault at {site}")))
            });
            let govern = ResourceGovernor::new(&Limits::none().with_memory_bytes(60), Some(inj));
            let ctx = ctx_parts(&config, &govern);
            let keys = asc_key();
            let gauge = MatGauge::new(None, govern.as_memory_guard(), None);
            let mut sorter = ExternalSorter::new(Some(ctx), &keys, IdCodec, gauge);
            let mut failed = false;
            for i in 0..10i64 {
                if let Err(e) = sorter.push(vec![Value::Int(i)], Value::Int(i), approx_value_bytes)
                {
                    assert!(
                        format!("{e}").contains("injected fault"),
                        "wrong error: {e:?}"
                    );
                    failed = true;
                    break;
                }
            }
            assert!(failed, "site {site} never fired");
        }
    }

    #[test]
    fn seeded_hash_gives_independent_partitions_per_seed() {
        let keys: Vec<Vec<Value>> = (0..64i64).map(|i| vec![Value::Int(i)]).collect();
        let h0: Vec<u64> = keys.iter().map(|k| seeded_hash(k, 0) % 8).collect();
        let h1: Vec<u64> = keys.iter().map(|k| seeded_hash(k, 1) % 8).collect();
        assert_ne!(h0, h1, "different seeds must shuffle the routing");
    }

    #[test]
    fn grace_partitioner_routes_consistently_and_covers_all_records() {
        let config = SpillConfig::default();
        let govern = ResourceGovernor::new(&Limits::none(), None);
        let ctx = ctx_parts(&config, &govern);
        let mut p = GracePartitioner::new(&ctx, 0).unwrap();
        for i in 0..40i64 {
            let key = vec![Value::Int(i % 10)];
            p.write(&ctx, &key, Value::Int(i)).unwrap();
        }
        // Same key always routes to the same partition.
        assert_eq!(p.route(&[Value::Int(3)]), p.route(&[Value::Int(3)]));
        let runs = p.finish().unwrap();
        assert_eq!(runs.len(), SpillConfig::PARTITIONS);
        assert!(runs.iter().filter(|r| r.records() > 0).count() > 1);
        let total: u64 = runs.iter().map(SpillRun::records).sum();
        assert_eq!(total, 40);
    }
}
