//! The engine's durability surface: opening with recovery, logged
//! publishes, checkpoints, and one-shot snapshot import/export.
//!
//! The crash-safety protocol (DESIGN.md §5.13) in one paragraph: every
//! publish that must survive a crash appends a WAL record *before* the
//! catalog exposes the new state, and both steps happen under the
//! catalog's [`dml_guard`](sqlpp_catalog::Catalog::dml_guard) — the same
//! mutex DML statements already hold across their read-modify-write.
//! That single serialization point is what makes checkpoints sound:
//! [`Engine::checkpoint`] takes the guard, so the image it captures
//! reflects exactly the records appended so far (never a record whose
//! publish is still in flight), and the WAL truncation that follows can
//! never discard a record the snapshot missed. The one unlogged publish,
//! [`Engine::register`], marks its name unanchored in the store; a
//! checkpoint anchors every name again.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sqlpp_durability::{
    read_snapshot, write_image, CatalogImage, DurabilityConfig, DurableStore, ImageView, Recovered,
    WalStatus,
};
use sqlpp_schema::SqlppType;
use sqlpp_value::Value;

use crate::error::Result;
use crate::{Catalog, Engine, SessionConfig};

impl Engine {
    /// Opens an engine from a [`SessionConfig`]. With
    /// `config.durability` set, this opens (or creates) the durability
    /// directory, runs recovery — newest valid snapshot, then WAL tail
    /// replay, torn final record truncated — and installs the recovered
    /// catalog; without it, this is exactly [`Engine::new`] with the
    /// given config.
    pub fn open(config: SessionConfig) -> Result<Engine> {
        let Some(durability) = config.durability.clone() else {
            return Ok(Engine {
                catalog: Catalog::default(),
                config,
                wal: None,
            });
        };
        let (store, recovered) = DurableStore::open(durability)?;
        let catalog = Catalog::default();
        install(&catalog, recovered.image);
        Ok(Engine {
            catalog,
            config,
            wal: Some(Arc::new(store)),
        })
    }

    /// Opens a durable engine over `dir` with otherwise-default
    /// configuration (sync mode `Always`: an acknowledged commit is on
    /// disk before it is visible).
    pub fn open_durable(dir: impl Into<PathBuf>) -> Result<Engine> {
        Engine::open(SessionConfig {
            durability: Some(DurabilityConfig::new(dir.into())),
            ..SessionConfig::default()
        })
    }

    /// Like [`Engine::open`], additionally returning what recovery
    /// reconstructed (snapshot LSN, records replayed, torn-tail report).
    pub fn open_with_recovery(config: SessionConfig) -> Result<(Engine, Recovered)> {
        let Some(durability) = config.durability.clone() else {
            let engine = Engine::open(config)?;
            return Ok((engine, Recovered::default()));
        };
        let (store, recovered) = DurableStore::open(durability)?;
        let catalog = Catalog::default();
        install(&catalog, recovered.image.clone());
        Ok((
            Engine {
                catalog,
                config,
                wal: Some(Arc::new(store)),
            },
            recovered,
        ))
    }

    /// Whether this engine writes a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The shared WAL store, for sessions that need direct access (the
    /// server's shutdown checkpoint, status displays).
    pub(crate) fn wal(&self) -> Option<&Arc<DurableStore>> {
        self.wal.as_ref()
    }

    /// Current WAL counters, or `None` on an in-memory engine.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.wal.as_ref().map(|w| w.status())
    }

    /// Takes a checkpoint: captures the full catalog under the DML
    /// guard, writes it as an atomic snapshot, and truncates the WAL.
    /// Returns the covered LSN, or `None` on an in-memory engine.
    pub fn checkpoint(&self) -> Result<Option<u64>> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        // Lock order everywhere: dml_guard → wal inner lock. Holding the
        // guard means no statement is between its WAL append and its
        // catalog publish, so the image matches the log exactly.
        let _writers = self.catalog.dml_guard();
        Ok(Some(self.with_image(|image| wal.checkpoint_view(image))?))
    }

    /// Exports the catalog as a one-shot snapshot file (the REPL's
    /// `.save`). Works on in-memory engines too — the file is a
    /// standalone archive, not tied to any durability directory.
    pub fn save_snapshot(&self, path: &Path) -> Result<()> {
        let _writers = self.catalog.dml_guard();
        let lsn = self.wal.as_ref().map_or(0, |w| w.status().last_lsn);
        self.with_image(|image| write_image(path, lsn, image, true))?;
        Ok(())
    }

    /// Imports a snapshot file into this engine's catalog (the REPL's
    /// `.open`), overwriting same-named bindings. On a durable engine
    /// every imported binding is WAL-logged, so the import itself is
    /// crash-safe. Returns the number of bindings imported.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize> {
        let snap = read_snapshot(path)?;
        let mut schemas: HashMap<String, SqlppType> = snap.image.schemas.into_iter().collect();
        let mut imported = 0usize;
        for (name, value) in snap.image.values {
            let schema = schemas.remove(&name);
            self.put_logged(&name, value, schema.as_ref())?;
            imported += 1;
        }
        // Schema attachments without a current value (legal: a schema
        // can outlive its collection's removal).
        for (name, ty) in schemas {
            let _writers = self.catalog.dml_guard();
            if let Some(wal) = &self.wal {
                wal.append_schema(&name, &ty)?;
            }
            self.catalog.set_schema(name.as_str(), ty);
            imported += 1;
        }
        Ok(imported)
    }

    /// The logged publish every fallible loading path funnels through:
    /// appends the WAL record (value alone, or value + schema as one
    /// atomic record), then publishes to the catalog — all under the DML
    /// guard. On an in-memory engine this is just the publish.
    pub(crate) fn put_logged(
        &self,
        name: &str,
        value: Value,
        schema: Option<&SqlppType>,
    ) -> Result<()> {
        let _writers = self.catalog.dml_guard();
        if let Some(wal) = &self.wal {
            match schema {
                Some(ty) => wal.append_commit_with_schema(name, &value, ty)?,
                None => wal.append_commit(name, &value)?,
            };
        }
        self.catalog.set(name, value);
        if let Some(ty) = schema {
            self.catalog.set_schema(name, ty.clone());
        }
        Ok(())
    }

    /// Runs `write` over the full catalog as a borrowed image: every
    /// value is an `Arc` snapshot, so the image costs a refcount per
    /// binding, not a copy. Callers that need the image consistent with
    /// the WAL hold the DML guard across the call (see
    /// [`Engine::checkpoint`]).
    fn with_image<T>(&self, write: impl FnOnce(&ImageView<'_>) -> T) -> T {
        let held: Vec<(String, Arc<Value>)> = (self.catalog.names().into_iter())
            .filter_map(|name| Some((name.to_string(), self.catalog.get(&name).ok()?)))
            .collect();
        let (schema_epoch, schemas) = self.catalog.schema_state();
        write(&ImageView {
            values: (held.iter())
                .map(|(name, value)| (name.as_str(), &**value))
                .collect(),
            schemas: &schemas,
            schema_epoch,
        })
    }
}

/// Installs a recovered image into a fresh catalog.
fn install(catalog: &Catalog, image: CatalogImage) {
    for (name, value) in image.values {
        catalog.set(name.as_str(), value);
    }
    for (name, ty) in image.schemas {
        catalog.set_schema(name.as_str(), ty);
    }
    // `set_schema` bumped the epoch per attachment; raise it the rest of
    // the way so pre-crash epochs can never collide with current ones.
    catalog.advance_schema_epoch_to(image.schema_epoch);
}
