//! **B18** — durability: what crash safety costs. Three questions, all
//! measured on the real engine / store, none asserted as tight perf
//! multiples (fsync latency is the storage stack's, not ours):
//!
//! * `commit_*/{rows}` — the per-commit overhead of write-ahead logging
//!   at each [`SyncMode`] against the in-memory baseline, for a
//!   one-row UPDATE of a 128-row and of a 10 000-row collection. A DML
//!   statement logs its delta (one `patch` record holding the rewritten
//!   row), not the collection, so the suite checkpoints after loading —
//!   every timed commit is then a patch — and asserts that
//!   `wal_bytes_per_commit` at 10 000 rows is at most twice the value
//!   at 128: the record's size is the statement's, not the
//!   collection's.
//! * `checkpoint/{n}` — writing a full catalog snapshot (temp file +
//!   fsync + atomic rename + log truncation) at 10k and 100k rows.
//! * `recover_snapshot/{n}` / `recover_wal/{n}` — cold-start recovery
//!   from a snapshot vs. replaying a 64-record WAL holding the same
//!   rows. Both paths are asserted to reproduce every row before being
//!   timed.

use std::path::PathBuf;

use sqlpp::{DurabilityConfig, Engine, SessionConfig, SyncMode};
use sqlpp_durability::{CatalogImage, DurableStore};
use sqlpp_testkit::bench::Harness;
use sqlpp_value::{Tuple, Value};

use super::scaled;

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlpp-bench-durability-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rows(n: usize) -> Value {
    let rows = (0..n as i64)
        .map(|i| {
            let mut t = Tuple::with_capacity(3);
            t.insert("id", Value::Int(i));
            t.insert("v", Value::Int((i * 31) % 1_000));
            t.insert("pad", Value::Str(format!("payload-{}", i % 97)));
            Value::Tuple(t)
        })
        .collect();
    Value::Bag(rows)
}

fn durable_engine(dir: &PathBuf, sync: SyncMode) -> Engine {
    Engine::open(SessionConfig {
        durability: Some(DurabilityConfig::new(dir).with_sync(sync)),
        ..SessionConfig::default()
    })
    .expect("fresh durability dir opens")
}

/// Runs the suite.
pub fn run(h: &mut Harness) {
    // --- per-commit overhead: one UPDATE of one row, at two
    // collection sizes, so the WAL append is the only thing that varies
    // across modes and the record size can be compared across sizes.
    const COMMIT_ROWS: [usize; 2] = [128, 10_000];
    let update = "UPDATE bench.d AS e SET e.v = e.v + 1 WHERE e.id = 0";

    for n in COMMIT_ROWS {
        let baseline = Engine::new();
        baseline.register("bench.d", rows(n));
        h.bench(format!("durability/commit_in_memory/{n}"), || {
            baseline.execute(update).unwrap()
        });
    }
    for sync in [SyncMode::Never, SyncMode::OnCheckpoint, SyncMode::Always] {
        let [small, large] = COMMIT_ROWS.map(|n| {
            let dir = work_dir(&format!("commit-{}-{n}", sync.name()));
            let engine = durable_engine(&dir, sync);
            // `register` is unlogged; the checkpoint anchors it, so every
            // timed commit logs a patch.
            engine.register("bench.d", rows(n));
            engine.checkpoint().expect("checkpoint");
            h.bench(format!("durability/commit_wal_{}/{n}", sync.name()), || {
                engine.execute(update).unwrap()
            });
            let st = engine.wal_status().expect("durable engine has a WAL");
            let per_commit = st.wal_bytes / st.appends.max(1);
            h.attach_counters([
                (format!("appends_{}_{n}", sync.name()), st.appends),
                (format!("fsyncs_{}_{n}", sync.name()), st.syncs),
                (
                    format!("wal_bytes_per_commit_{}_{n}", sync.name()),
                    per_commit,
                ),
            ]);
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
            per_commit
        });
        assert!(
            large <= 2 * small,
            "{sync}: a one-row UPDATE logs {large} B at {} rows but {small} B at {} rows",
            COMMIT_ROWS[1],
            COMMIT_ROWS[0],
        );
    }

    // --- checkpoint write and cold-start recovery at 10k / 100k rows.
    for full in [10_000usize, 100_000] {
        let n = scaled(h, full).max(1_000);

        // Checkpoint: the engine-level path (image capture under the DML
        // guard + temp file + fsync + rename + WAL truncation).
        let dir = work_dir(&format!("checkpoint-{full}"));
        let engine = durable_engine(&dir, SyncMode::Always);
        engine.register("bench.d", rows(n));
        h.bench(format!("durability/checkpoint/{full}"), || {
            engine.checkpoint().unwrap().expect("durable engine")
        });
        let snap_bytes: u64 = std::fs::read_dir(&dir)
            .expect("dir lists")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
            .sum();
        h.attach_counters([
            (format!("rows_{full}"), n as u64),
            (format!("snapshot_bytes_{full}"), snap_bytes),
        ]);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        // Recovery from a snapshot: one checksummed image read.
        let dir = work_dir(&format!("recover-snap-{full}"));
        {
            let (store, _) = DurableStore::open(DurabilityConfig::new(&dir)).expect("open");
            let mut image = CatalogImage::default();
            image.values.push(("bench.d".to_string(), rows(n)));
            store.checkpoint(&image).expect("checkpoint");
        }
        h.bench(format!("durability/recover_snapshot/{full}"), || {
            let (_store, recovered) =
                DurableStore::open(DurabilityConfig::new(&dir)).expect("recover");
            assert_eq!(recovered.replayed, 0, "snapshot recovery replays nothing");
            recovered
        });
        let _ = std::fs::remove_dir_all(&dir);

        // Recovery by WAL replay: the same rows arriving as 64 commit
        // records (sharded collections, so total replayed bytes stay
        // O(n) despite full-value logging), no snapshot to shortcut.
        let dir = work_dir(&format!("recover-wal-{full}"));
        const SHARDS: usize = 64;
        {
            let (store, _) =
                DurableStore::open(DurabilityConfig::new(&dir).with_sync(SyncMode::Never))
                    .expect("open");
            let per = n / SHARDS;
            for s in 0..SHARDS {
                store
                    .append_commit(&format!("bench.d{s}"), &rows(per))
                    .expect("append");
            }
        }
        let per = n / SHARDS;
        h.bench(format!("durability/recover_wal/{full}"), || {
            let (_store, recovered) =
                DurableStore::open(DurabilityConfig::new(&dir)).expect("recover");
            assert_eq!(recovered.replayed, SHARDS as u64, "all shards replay");
            let total: usize = recovered
                .image
                .values
                .iter()
                .filter_map(|(_, v)| v.as_elements().map(<[Value]>::len))
                .sum();
            assert_eq!(total, per * SHARDS, "replay reproduced every row");
            recovered
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
