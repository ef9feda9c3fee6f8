//! Crash-point recovery: the proof layer of the durability subsystem.
//!
//! The harness runs a seeded DML workload (with periodic checkpoints)
//! on a durable engine whose storage layer is armed to fail at the k-th
//! visit to one fault site — `wal-append`, `wal-fsync`,
//! `snapshot-write`, `snapshot-rename` — then treats the first
//! durability error as the crash: the engine is dropped where it
//! stands and a fresh engine recovers the directory. An in-memory twin
//! executes the same statements in lockstep, so the harness knows the
//! exact catalog state before and after every commit.
//!
//! Invariants asserted at every (site × k) crash point:
//!
//! * **atomicity** — the recovered catalog is byte-identical to either
//!   the pre- or the post-commit state of the interrupted statement,
//!   never anything in between;
//! * **durability** — every statement acknowledged before the crash
//!   survives recovery (its effects are in both admissible states);
//! * **no panics** — crash, recovery, and everything between go through
//!   structured errors only;
//! * **no orphans** — after recovery the directory holds nothing but
//!   `wal.log` and `snap-*.snap`.
//!
//! Alongside the sweep: recovery-time fault injection (`recovery-read`),
//! physical torn-tail truncation, mid-log bit flips, and the
//! prefix-differential replay test — recovering from *every*
//! record-boundary prefix of the log must land exactly on the state
//! after the corresponding commit prefix.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sqlpp::{
    DurabilityConfig, DurabilityError, Engine, Error, FaultInjector, SessionConfig, SyncMode,
    TypingMode,
};
use sqlpp_durability::{wal_record_ends, CatalogImage, DurableStore, WAL_FILE};
use sqlpp_eval::EvalError;
use sqlpp_testkit::fault::FaultPlan;
use sqlpp_testkit::Rng;

/// The storage-layer sites the workload sweep injects into. The
/// recovery-read site fires on open, not during the workload; it gets
/// its own tests below.
const CRASH_SITES: [&str; 4] = [
    "wal-append",
    "wal-fsync",
    "snapshot-write",
    "snapshot-rename",
];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sqlpp-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A byte-comparable rendering of every collection (and schema) in the
/// catalog — the equality the atomicity assertions compare under.
fn catalog_state(engine: &Engine) -> Vec<(String, String)> {
    let mut names = engine.catalog().names();
    names.sort_by_key(|n| n.to_string());
    let mut state: Vec<(String, String)> = names
        .into_iter()
        .map(|n| {
            let v = engine.catalog().get(&n).expect("listed name resolves");
            (n.to_string(), v.to_string())
        })
        .collect();
    let mut schemas = engine.catalog().schema_snapshot();
    schemas.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, ty) in schemas {
        state.push((format!("schema:{name}"), ty.to_string()));
    }
    state
}

/// The deterministic workload: statement `i` under seed `s` is the same
/// string on every run, so the crash sweep and the twin replay agree.
fn workload_statement(rng: &mut Rng, i: usize) -> String {
    match rng.next_u64() % 10 {
        0..=5 => format!(
            "INSERT INTO t VALUE {{'id': {i}, 'v': {}, 'tag': '{}'}}",
            rng.next_u64() % 1000,
            if rng.gen_bool(0.5) { "a" } else { "b" },
        ),
        6..=7 => format!(
            "UPDATE t AS e SET e.v = e.v + {} WHERE e.id >= {}",
            rng.next_u64() % 50,
            i.saturating_sub(4),
        ),
        8 => format!(
            "DELETE FROM t AS e WHERE e.id = {}",
            rng.next_u64() % (i as u64 + 1)
        ),
        // The scalar comes last so the statement doesn't end in `}}`,
        // which the lexer reads as a bag-close token.
        _ => format!(
            "INSERT INTO u VALUE {{'nested': {{'xs': [{}, {}]}}, 'k': {i}}}",
            rng.next_u64() % 9,
            rng.next_u64() % 9,
        ),
    }
}

fn durable_config(dir: &Path, plan: Option<Arc<FaultPlan>>) -> SessionConfig {
    let mut durability = DurabilityConfig::new(dir).with_sync(SyncMode::Always);
    if let Some(plan) = plan {
        durability = durability.with_fault(FaultInjector::new(move |site| {
            plan.should_fail(site.name())
                .then(|| EvalError::Resource(format!("injected fault at {}", site.name())))
        }));
    }
    SessionConfig {
        durability: Some(durability),
        ..SessionConfig::default()
    }
}

/// Runs one crash-point case: workload under a fail-kth plan, crash at
/// the first durability error, recover, assert the four invariants.
/// Returns true when the plan actually fired (the sweep counts those).
fn run_crash_case(site: &str, k: u64, seed: u64) -> bool {
    let dir = tmp_dir(&format!("{site}-{k}"));
    let plan = Arc::new(FaultPlan::fail_kth(site, k));
    let engine =
        Engine::open(durable_config(&dir, Some(Arc::clone(&plan)))).expect("fresh dir opens");
    // CREATE TABLE seeds both engines with a schema-attached collection,
    // so schema changes are part of every crash window.
    let twin = Engine::new();
    let ddl = "CREATE TABLE t (id INT, v INT, tag STRING)";
    let mut states = vec![catalog_state(&twin)];

    let mut rng = Rng::new(seed);
    // `None` = crash during a checkpoint (logical no-op): pre == post.
    let mut interrupted: Option<String> = None;
    let result = catch_unwind(AssertUnwindSafe(|| {
        match engine.execute(ddl) {
            Ok(_) => {
                twin.execute(ddl).expect("twin DDL");
                states.push(catalog_state(&twin));
            }
            Err(Error::Durability(_)) => {
                interrupted = Some(ddl.to_string());
                return;
            }
            Err(e) => panic!("unexpected non-durability error: {e}"),
        }
        for i in 0..40 {
            if i % 7 == 6 {
                if let Err(e) = engine.checkpoint() {
                    assert!(matches!(e, Error::Durability(_)), "checkpoint error: {e}");
                    return; // crash inside a checkpoint
                }
            }
            let stmt = workload_statement(&mut rng, i);
            match engine.execute(&stmt) {
                Ok(_) => {
                    twin.execute(&stmt).expect("twin statement");
                    states.push(catalog_state(&twin));
                }
                Err(Error::Durability(_)) => {
                    interrupted = Some(stmt);
                    return;
                }
                Err(e) => panic!("unexpected non-durability error: {e}"),
            }
        }
    }));
    assert!(result.is_ok(), "site {site} k {k}: workload panicked");
    let crashed = plan.fired();
    drop(engine); // the crash: no checkpoint, no graceful anything

    // Admissible post-crash states: everything acked (pre), plus — when
    // a statement was interrupted mid-commit — that statement's effects
    // (post: its WAL record may have landed before the failure).
    let pre = states.last().expect("at least the empty state").clone();
    let post = match &interrupted {
        Some(stmt) => {
            match twin.execute(stmt) {
                Ok(_) => catalog_state(&twin),
                // The statement might fail on the twin for data reasons
                // only if the durable engine diverged — it can't, the
                // workload is deterministic. Treat as pre.
                Err(_) => pre.clone(),
            }
        }
        None => pre.clone(),
    };

    // Recovery must be a structured success — never a panic.
    let recovered = catch_unwind(AssertUnwindSafe(|| {
        Engine::open(durable_config(&dir, None))
    }));
    let recovered = recovered
        .unwrap_or_else(|_| panic!("site {site} k {k}: recovery panicked"))
        .unwrap_or_else(|e| panic!("site {site} k {k}: recovery failed: {e}"));
    let state = catalog_state(&recovered);
    assert!(
        state == pre || state == post,
        "site {site} k {k} seed {seed}: recovered state is neither pre- nor \
         post-commit of the interrupted statement\n  interrupted: {interrupted:?}\n  \
         recovered: {state:?}\n  pre: {pre:?}\n  post: {post:?}"
    );

    // No orphaned temp or stray files survive recovery.
    for entry in std::fs::read_dir(&dir).expect("dir lists") {
        let name = entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        assert!(
            name == WAL_FILE || (name.starts_with("snap-") && name.ends_with(".snap")),
            "site {site} k {k}: orphaned file {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    crashed
}

#[test]
fn crash_point_sweep_over_every_storage_site() {
    // Every site × every occurrence until the plan stops firing: the
    // workload makes ~45 wal-append visits and ~5 of each checkpoint
    // site, so k sweeps the full range with headroom.
    let mut fired_total = 0u32;
    for (s, site) in CRASH_SITES.iter().enumerate() {
        let mut fired_here = 0u32;
        for k in 1..=48u64 {
            let seed = 0xC0DE + (s as u64) * 1000 + k;
            if run_crash_case(site, k, seed) {
                fired_here += 1;
            } else {
                break; // occurrences exhausted: later k never fire either
            }
        }
        assert!(
            fired_here >= 2,
            "site {site}: the workload must hit the site at least twice \
             (got {fired_here}) or the sweep proves nothing"
        );
        fired_total += fired_here;
    }
    assert!(
        fired_total >= 20,
        "sweep too shallow: {fired_total} crash points"
    );
}

#[test]
fn clean_shutdown_recovers_identically_without_faults() {
    let dir = tmp_dir("clean");
    let engine = Engine::open(durable_config(&dir, None)).expect("open");
    let twin = Engine::new();
    let ddl = "CREATE TABLE t (id INT, v INT, tag STRING)";
    engine.execute(ddl).unwrap();
    twin.execute(ddl).unwrap();
    let mut rng = Rng::new(7);
    for i in 0..25 {
        let stmt = workload_statement(&mut rng, i);
        engine.execute(&stmt).unwrap();
        twin.execute(&stmt).unwrap();
    }
    let expected = catalog_state(&twin);
    drop(engine);
    let recovered = Engine::open(durable_config(&dir, None)).expect("recover");
    assert_eq!(catalog_state(&recovered), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_read_fault_is_a_structured_error_then_recovers_clean() {
    let dir = tmp_dir("recovery-read");
    {
        let engine = Engine::open(durable_config(&dir, None)).expect("open");
        engine.execute("CREATE TABLE t (id INT)").unwrap();
        engine.execute("INSERT INTO t VALUE {'id': 1}").unwrap();
        engine.checkpoint().expect("checkpoint");
        engine.execute("INSERT INTO t VALUE {'id': 2}").unwrap();
    }
    // Every recovery-read visit (snapshot read, WAL read) fails as a
    // structured error, never a panic, and never half-opens an engine.
    for k in 1..=2u64 {
        let plan = Arc::new(FaultPlan::fail_kth("recovery-read", k));
        let result = catch_unwind(AssertUnwindSafe(|| {
            Engine::open(durable_config(&dir, Some(Arc::clone(&plan))))
        }))
        .expect("recovery must not panic");
        match result {
            Err(Error::Durability(e)) if matches!(*e, DurabilityError::Injected(_)) => {}
            Err(e) => panic!("k {k}: expected injected durability error, got {e}"),
            Ok(_) => panic!("k {k}: open succeeded though recovery read failed"),
        }
    }
    // The directory is untouched by the failed attempts.
    let recovered = Engine::open(durable_config(&dir, None)).expect("clean recovery");
    let state = catalog_state(&recovered);
    assert!(
        state.iter().any(|(n, v)| n == "t" && v.contains("'id': 2")),
        "{state:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn physically_torn_wal_tail_recovers_to_the_last_valid_record() {
    let dir = tmp_dir("torn-tail");
    {
        let engine = Engine::open(durable_config(&dir, None)).expect("open");
        engine.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..5 {
            engine
                .execute(&format!("INSERT INTO t VALUE {{'id': {i}}}"))
                .unwrap();
        }
    }
    let wal = dir.join(WAL_FILE);
    let ends = wal_record_ends(&wal).expect("scan");
    assert_eq!(ends.len(), 6, "one DDL + five inserts");
    let bytes = std::fs::read(&wal).expect("read wal");
    // Tear the final record mid-frame: the classic power-loss artifact.
    let cut = (ends[4] + ends[5]) / 2;
    std::fs::write(&wal, &bytes[..cut as usize]).expect("tear");

    let (recovered, report) =
        Engine::open_with_recovery(durable_config(&dir, None)).expect("torn tail tolerated");
    assert!(report.torn_tail.is_some(), "torn tail must be reported");
    assert_eq!(report.replayed, 5, "five records survive the tear");
    let state = catalog_state(&recovered);
    assert!(state.iter().any(|(n, v)| n == "t" && v.contains("'id': 3")));
    assert!(
        !state.iter().any(|(_, v)| v.contains("'id': 4")),
        "the torn record must not half-apply: {state:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_bit_flip_is_reported_as_corruption_not_panic() {
    let dir = tmp_dir("bit-flip");
    {
        let engine = Engine::open(durable_config(&dir, None)).expect("open");
        engine.execute("CREATE TABLE t (id INT)").unwrap();
        engine.execute("INSERT INTO t VALUE {'id': 1}").unwrap();
        engine.execute("INSERT INTO t VALUE {'id': 2}").unwrap();
    }
    let wal = dir.join(WAL_FILE);
    let ends = wal_record_ends(&wal).expect("scan");
    let mut bytes = std::fs::read(&wal).expect("read");
    bytes[(ends[0] + 12) as usize] ^= 0x20; // inside the second record
    std::fs::write(&wal, &bytes).expect("write");

    let result = catch_unwind(AssertUnwindSafe(|| {
        Engine::open(durable_config(&dir, None))
    }))
    .expect("corruption must not panic");
    match result {
        Err(Error::Durability(e)) => match *e {
            DurabilityError::Corrupt { offset, .. } => {
                assert_eq!(offset, ends[0], "corruption pinned to the damaged record");
            }
            other => panic!("expected corruption, got {other}"),
        },
        Err(e) => panic!("expected corruption, got {e}"),
        Ok(_) => panic!("corrupted log must not open"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3: WAL replay prefix-differential. Recovering from every
/// record-boundary prefix of the log yields exactly the catalog state
/// after the corresponding commit prefix — replay is statement-exact,
/// not just eventually-right.
#[test]
fn every_wal_prefix_recovers_to_the_matching_commit_prefix() {
    let dir = tmp_dir("prefix-src");
    let engine = Engine::open(durable_config(&dir, None)).expect("open");
    let twin = Engine::new();
    // No checkpoints here: the WAL must hold the whole history.
    let statements: Vec<String> = {
        let mut rng = Rng::new(0xD1FF);
        let mut v = vec!["CREATE TABLE t (id INT, v INT, tag STRING)".to_string()];
        v.extend((0..20).map(|i| workload_statement(&mut rng, i)));
        v
    };
    // Twin state after each commit prefix.
    let mut states = vec![catalog_state(&twin)];
    for stmt in &statements {
        engine.execute(stmt).expect("durable statement");
        twin.execute(stmt).expect("twin statement");
        states.push(catalog_state(&twin));
    }
    drop(engine);
    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    let ends = wal_record_ends(&dir.join(WAL_FILE)).expect("scan");
    assert_eq!(ends.len(), statements.len(), "one record per statement");

    for prefix in 0..=ends.len() {
        let cut = if prefix == 0 {
            0
        } else {
            ends[prefix - 1] as usize
        };
        let pdir = tmp_dir(&format!("prefix-{prefix}"));
        std::fs::create_dir_all(&pdir).expect("mkdir");
        std::fs::write(pdir.join(WAL_FILE), &wal_bytes[..cut]).expect("write prefix");
        let recovered = Engine::open(durable_config(&pdir, None))
            .unwrap_or_else(|e| panic!("prefix {prefix}: recovery failed: {e}"));
        assert_eq!(
            catalog_state(&recovered),
            states[prefix],
            "prefix {prefix}: recovered state diverges from commit prefix"
        );
        // Both typing modes run real queries through the recovered
        // engine (the recovered schema drives strict-mode checking).
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let session = recovered.with_config(SessionConfig {
                typing,
                ..SessionConfig::default()
            });
            let r = session
                .query("SELECT VALUE e.id FROM t AS e")
                .map(|r| r.into_value());
            if prefix == 0 {
                assert!(r.is_err(), "prefix 0 has no table t");
            } else {
                r.unwrap_or_else(|e| panic!("prefix {prefix} {typing:?}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&pdir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acknowledged-commit durability under `SyncMode::Always`, stated
/// directly: run, crash (drop without checkpoint), recover, and every
/// acked statement is there — the sweep's pre/post window collapses to
/// exact equality when nothing was interrupted.
#[test]
fn acknowledged_commits_survive_an_uncheckpointed_crash() {
    let dir = tmp_dir("acked");
    let engine = Engine::open(durable_config(&dir, None)).expect("open");
    engine
        .execute("CREATE TABLE t (id INT, v INT, tag STRING)")
        .unwrap();
    let twin = Engine::new();
    twin.execute("CREATE TABLE t (id INT, v INT, tag STRING)")
        .unwrap();
    let mut rng = Rng::new(99);
    for i in 0..30 {
        let stmt = workload_statement(&mut rng, i);
        engine.execute(&stmt).unwrap();
        twin.execute(&stmt).unwrap();
    }
    let expected = catalog_state(&twin);
    drop(engine);
    let (recovered, report) =
        Engine::open_with_recovery(durable_config(&dir, None)).expect("recover");
    assert_eq!(report.replayed, 31, "all 31 records replay (no checkpoint)");
    assert_eq!(catalog_state(&recovered), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `register` binds without logging; the first statement on the name
/// afterwards must log enough for replay to rebuild it (a full image),
/// or its delta would land on the stale logged base.
#[test]
fn register_then_dml_recovers_the_in_memory_twin() {
    let dir = tmp_dir("register-dml");
    let engine = Engine::open(durable_config(&dir, None)).expect("open");
    let twin = Engine::new();
    let stmts = [
        "INSERT INTO t VALUE {'id': 0, 'v': 1}",
        "UPDATE t AS e SET e.v = e.v * 10 WHERE e.id >= 2",
        "INSERT INTO t VALUE {'id': 9, 'v': 9}",
    ];
    for (i, stmt) in stmts.iter().enumerate() {
        if i == 1 {
            // A logged base first, then an unlogged replacement of it.
            let rows = (0..5).map(|id| sqlpp_value::tuple! { "id" => id, "v" => id });
            let value = sqlpp_value::Value::Bag(rows.map(sqlpp_value::Value::Tuple).collect());
            engine.register("t", value.clone());
            twin.register("t", value);
        }
        engine.execute(stmt).unwrap();
        twin.execute(stmt).unwrap();
    }
    let expected = catalog_state(&twin);
    assert_eq!(catalog_state(&engine), expected);
    drop(engine);
    let recovered = Engine::open(durable_config(&dir, None)).expect("recover");
    assert_eq!(catalog_state(&recovered), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Statements for the replay-equivalence property: every delta shape
/// (bulk INSERT … SELECT, multi-row UPDATE, UPDATE to MISSING, DELETE of
/// none and of all rows, INSERT creating an unbound name) over a
/// schema'd `CREATE TABLE` target `t` and a schemaless `u`.
fn delta_statement(rng: &mut Rng, i: usize) -> String {
    let r = rng.next_u64() % 100;
    match rng.next_u64() % 12 {
        0..=2 => format!("INSERT INTO t VALUE {{'id': {i}, 'v': {r}, 'tag': 'a'}}"),
        3 => format!(
            "INSERT INTO t SELECT VALUE {{'id': {i} * 100 + x, 'v': x, 'tag': 'b'}} \
             FROM [1, 2, 3, 4, 5, 6, 7] AS x"
        ),
        4 => format!(
            "UPDATE t AS e SET e.v = e.v + {r} WHERE e.id >= {}",
            i.saturating_sub(5)
        ),
        5 => "DELETE FROM t AS e WHERE e.id < 0".to_string(),
        6 => format!("DELETE FROM t AS e WHERE e.v = {}", r % 8),
        7 => format!("INSERT INTO u VALUE {{'nested': {{'xs': [{r}]}}, 'tag': 'x', 'k': {i}}}"),
        8 => format!(
            "INSERT INTO u SELECT VALUE {{'k': {i} * 100 + x, 'tag': 'y'}} FROM [1, 2, 3] AS x"
        ),
        9 => format!(
            "UPDATE u AS e SET e.tag = MISSING WHERE e.k % 3 = {}",
            r % 3
        ),
        10 => "DELETE FROM u AS e".to_string(),
        _ => format!("INSERT INTO n{} VALUE {{'i': {i}}}", r % 4),
    }
}

/// Replay equivalence: for seeded statement sequences with checkpoints
/// at random points, recovery (snapshot + patch replay) reproduces the
/// in-memory twin's catalog exactly — element order included — in both
/// typing modes.
#[test]
fn patch_replay_reproduces_the_in_memory_twin() {
    for typing in [TypingMode::Permissive, TypingMode::StrictError] {
        for seed in 0..6u64 {
            let dir = tmp_dir(&format!("replay-{typing:?}-{seed}"));
            let config = SessionConfig {
                typing,
                ..durable_config(&dir, None)
            };
            let engine = Engine::open(config.clone()).expect("open");
            let twin = Engine::open(SessionConfig {
                durability: None,
                ..config.clone()
            })
            .expect("twin");
            for setup in [
                "CREATE TABLE t (id INT, v INT, tag STRING)",
                "INSERT INTO u VALUE {'k': -1, 'tag': 'seed'}",
            ] {
                engine.execute(setup).unwrap();
                twin.execute(setup).unwrap();
            }
            let mut rng = Rng::new(0x5EED + seed);
            for i in 0..40 {
                if rng.gen_bool(0.1) {
                    engine.checkpoint().expect("checkpoint");
                }
                let stmt = delta_statement(&mut rng, i);
                for side in [&engine, &twin] {
                    (side.execute(&stmt))
                        .unwrap_or_else(|e| panic!("{typing:?} seed {seed}: {stmt}: {e}"));
                }
            }
            let expected = catalog_state(&twin);
            assert_eq!(catalog_state(&engine), expected);
            drop(engine);
            let recovered = Engine::open(config).expect("recover");
            assert_eq!(
                catalog_state(&recovered),
                expected,
                "{typing:?} seed {seed}: recovered catalog diverges from the twin"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A single-row INSERT logs the row, not the collection: its WAL bytes
/// are the same at 128 and at 10 000 rows.
#[test]
fn single_row_insert_wal_bytes_do_not_grow_with_the_collection() {
    let bytes_at = |rows: i64| {
        let dir = tmp_dir(&format!("wal-size-{rows}"));
        let engine = Engine::open(durable_config(&dir, None)).expect("open");
        let items = (0..rows).map(|id| sqlpp_value::tuple! { "id" => id, "v" => id % 7 });
        let value = sqlpp_value::Value::Bag(items.map(sqlpp_value::Value::Tuple).collect());
        engine.register("t", value);
        engine.checkpoint().expect("checkpoint");
        let before = engine.wal_status().unwrap().wal_bytes;
        engine
            .execute("INSERT INTO t VALUE {'id': -1, 'v': 3}")
            .unwrap();
        let after = engine.wal_status().unwrap().wal_bytes;
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        after - before
    };
    let (small, large) = (bytes_at(128), bytes_at(10_000));
    assert!(
        small.abs_diff(large) <= 16,
        "one-row INSERT logged {small} bytes at 128 rows but {large} at 10 000"
    );
}

/// `n` rows `{id, v, pad}`, the collection the WAL-size and replay checks
/// store.
fn padded_rows(n: i64) -> sqlpp_value::Value {
    let items = (0..n).map(|id| {
        sqlpp_value::tuple! {
            "id" => id,
            "v" => (id * 31) % 1_000,
            "pad" => format!("payload-{}", id % 97),
        }
    });
    sqlpp_value::Value::Bag(items.map(sqlpp_value::Value::Tuple).collect())
}

/// A one-row UPDATE logs its delta, not the collection: at every sync
/// mode, its WAL bytes per commit at 10 000 rows are at most twice those
/// at 128.
#[test]
fn single_row_update_wal_bytes_do_not_grow_with_the_collection() {
    for sync in [SyncMode::Never, SyncMode::OnCheckpoint, SyncMode::Always] {
        let per_commit = |rows: i64| {
            let dir = tmp_dir(&format!("update-size-{}-{rows}", sync.name()));
            let engine = Engine::open(SessionConfig {
                durability: Some(DurabilityConfig::new(&dir).with_sync(sync)),
                ..SessionConfig::default()
            })
            .expect("open");
            // `register` is unlogged; the checkpoint anchors it, so each
            // commit below logs a patch.
            engine.register("t", padded_rows(rows));
            engine
                .checkpoint()
                .unwrap()
                .expect("a durable engine checkpoints");
            for _ in 0..3 {
                engine
                    .execute("UPDATE t AS e SET e.v = e.v + 1 WHERE e.id = 0")
                    .unwrap();
            }
            let st = engine.wal_status().expect("a durable engine has a WAL");
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
            st.wal_bytes / st.appends.max(1)
        };
        let (small, large) = (per_commit(128), per_commit(10_000));
        assert!(
            large <= 2 * small,
            "{sync}: a one-row UPDATE logs {large} B at 10 000 rows but {small} B at 128"
        );
    }
}

/// Cold start from a snapshot replays no record; from a WAL of 64
/// commits, with no snapshot, it replays every record and reproduces
/// every row.
#[test]
fn recovery_replays_every_logged_commit_and_none_behind_a_snapshot() {
    const SHARDS: usize = 64;
    let n = 1_000;
    let dir = tmp_dir("recover-snapshot");
    {
        let (store, _) = DurableStore::open(DurabilityConfig::new(&dir)).expect("open");
        let mut image = CatalogImage::default();
        image.values.push(("t".to_string(), padded_rows(n)));
        store.checkpoint(&image).expect("checkpoint");
    }
    let (_store, recovered) = DurableStore::open(DurabilityConfig::new(&dir)).expect("recover");
    assert_eq!(recovered.replayed, 0, "snapshot recovery replays nothing");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("recover-wal");
    let per = n / SHARDS as i64;
    {
        let config = DurabilityConfig::new(&dir).with_sync(SyncMode::Never);
        let (store, _) = DurableStore::open(config).expect("open");
        for s in 0..SHARDS {
            store
                .append_commit(&format!("t{s}"), &padded_rows(per))
                .expect("append");
        }
    }
    let (_store, recovered) = DurableStore::open(DurabilityConfig::new(&dir)).expect("recover");
    assert_eq!(recovered.replayed, SHARDS as u64, "every shard replays");
    let total: usize = (recovered.image.values.iter())
        .filter_map(|(_, v)| v.as_elements().map(<[sqlpp_value::Value]>::len))
        .sum();
    assert_eq!(total, SHARDS * per as usize, "replay reproduced every row");
    let _ = std::fs::remove_dir_all(&dir);
}
