//! A concurrent registry of **named** advisory sessions — the
//! multi-warehouse heart of `warlockd`.
//!
//! The paper frames WARLOCK as a tool a DBA points at *one* warehouse;
//! a placement service carries many. [`Registry`] holds any number of
//! independently configured [`Warehouse`]s, each wrapping its own
//! [`Warlock`] session (own `Arc`'d snapshot, own shared evaluation
//! cache), keyed by name:
//!
//! - [`Registry::load`] reads a configuration file into a new named
//!   warehouse; [`Registry::unload`] removes one.
//! - [`Registry::reload`] atomically re-reads a warehouse's file
//!   (copy-on-write: the new inputs are parsed and validated in full
//!   before the swap; in-flight readers finish on the old snapshot, and
//!   on any error the warehouse keeps serving the old configuration).
//!   The warehouse's evaluation cache survives the swap — entries are
//!   fingerprint-keyed, so reverting a configuration change is warm —
//!   and sibling warehouses are never touched.
//! - [`Registry::list`] and [`Registry::stats`] observe per-warehouse
//!   health (source path, exact candidate-space size, cached baseline,
//!   cache counters) without evaluating anything.
//!
//! One warehouse name is the **default**: requests that do not route
//! explicitly (protocol v1 clients, v2 requests without a `warehouse`
//! field) resolve to it. The `warlock::service` layer is a thin
//! dispatcher over this type.

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::cache::EvalCacheStats;
use crate::error::WarlockError;
use crate::session::Warlock;

/// One named warehouse: a [`Warlock`] session plus the configuration
/// file it was loaded from (if any). Shared via `Arc` between the
/// registry and in-flight requests, so [`Registry::unload`] never tears
/// a session out from under a running evaluation.
#[derive(Debug)]
pub struct Warehouse {
    name: String,
    /// The configuration file backing this warehouse; `None` for
    /// sessions registered programmatically (those cannot `reload`).
    path: Option<String>,
    session: RwLock<Warlock>,
}

impl Warehouse {
    fn new(name: String, path: Option<String>, session: Warlock) -> Self {
        Self {
            name,
            path,
            session: RwLock::new(session),
        }
    }

    /// The warehouse's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration file this warehouse (re)loads from, if any.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }

    /// A clone of the warehouse's session: snapshot and cache are
    /// shared with it, so work done on the clone warms the warehouse.
    ///
    /// Lock poisoning is deliberately ignored here and in the write
    /// path: writers only assign an already-validated session at the
    /// very end of their critical section, so a panic under the lock
    /// cannot leave a torn value — and a long-lived server must keep
    /// answering after one bad request.
    pub fn session(&self) -> Warlock {
        self.read_session().clone()
    }

    fn read_session(&self) -> RwLockReadGuard<'_, Warlock> {
        self.session
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write access to the shared session, for mutating ops (`set_mix`,
    /// `set_budget`, reload). The swap under the lock is a cheap
    /// copy-on-write snapshot assignment; in-flight readers that cloned
    /// earlier keep their old snapshot.
    pub(crate) fn write_session(&self) -> RwLockWriteGuard<'_, Warlock> {
        self.session
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Health counters of this warehouse, computed without evaluating a
    /// single candidate (the space size comes from the exact predictor,
    /// `enumerated` only reflects an already-cached baseline ranking).
    pub fn stats(&self) -> WarehouseStats {
        let session = self.session();
        WarehouseStats {
            name: self.name.clone(),
            path: self.path.clone(),
            space_size: session.candidate_space_size(),
            enumerated: session.ranking().map(|r| r.enumerated as u64),
            cache: session.cache_stats(),
        }
    }
}

warlock_json::json_struct! {
    /// A point-in-time health summary of one [`Warehouse`], as reported by
    /// [`Registry::stats`] and the `list_warehouses` wire op.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WarehouseStats {
        /// The warehouse's registry name.
        pub name: String,
        /// The configuration file it (re)loads from, if any.
        pub path: Option<String>,
        /// Exact candidate-space size of the current snapshot.
        pub space_size: u128,
        /// Candidates enumerated by the cached baseline ranking, or `None`
        /// until one was computed.
        pub enumerated: Option<u64>,
        /// The warehouse's shared evaluation-cache counters.
        pub cache: EvalCacheStats as "cache_stats",
    }
}

/// A concurrent map of named [`Warehouse`]s with one configurable
/// default. See the [module docs](self).
#[derive(Debug)]
pub struct Registry {
    default: String,
    warehouses: RwLock<HashMap<String, Arc<Warehouse>>>,
}

impl Registry {
    /// An empty registry whose unrouted requests will resolve to
    /// `default` (once a warehouse of that name is loaded).
    pub fn new(default: impl Into<String>) -> Self {
        Self {
            default: default.into(),
            warehouses: RwLock::new(HashMap::new()),
        }
    }

    /// A registry holding one programmatic session under `name`, which
    /// is also the default — the single-warehouse service shape.
    pub fn single(name: impl Into<String>, session: Warlock) -> Self {
        let name = name.into();
        let registry = Self::new(name.clone());
        registry
            .insert(name, None, session)
            .expect("empty registry cannot hold a duplicate");
        registry
    }

    /// The name unrouted requests resolve to.
    pub fn default_name(&self) -> &str {
        &self.default
    }

    fn lock(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<Warehouse>>> {
        // Poisoning is ignored for the same reason as on sessions: all
        // writes are single `HashMap` operations on validated values.
        self.warehouses
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<Warehouse>>> {
        self.warehouses
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers an already-built session under `name`. With a `path`,
    /// later [`Registry::reload`]s re-read that file.
    ///
    /// # Errors
    ///
    /// [`WarlockError::DuplicateWarehouse`] when the name is taken.
    pub fn insert(
        &self,
        name: impl Into<String>,
        path: Option<String>,
        session: Warlock,
    ) -> Result<(), WarlockError> {
        let name = name.into();
        let mut warehouses = self.lock();
        if warehouses.contains_key(&name) {
            return Err(WarlockError::DuplicateWarehouse { name });
        }
        let warehouse = Arc::new(Warehouse::new(name.clone(), path, session));
        warehouses.insert(name, warehouse);
        Ok(())
    }

    /// Loads the configuration file at `path` as a new warehouse named
    /// `name`. The file is read, parsed and validated **before** the
    /// registry is touched, so a bad file never registers anything.
    ///
    /// # Errors
    ///
    /// [`WarlockError::DuplicateWarehouse`] when the name is taken, or
    /// any [`WarlockError::AtPath`]-wrapped load failure.
    pub fn load(
        &self,
        name: impl Into<String>,
        path: impl Into<String>,
    ) -> Result<(), WarlockError> {
        let name = name.into();
        let path = path.into();
        // Cheap pre-check so a duplicate name fails before the
        // expensive load; the insert below re-checks under the lock.
        if self.read().contains_key(&name) {
            return Err(WarlockError::DuplicateWarehouse { name });
        }
        let session = Warlock::from_config_path(&path)?;
        self.insert(name, Some(path), session)
    }

    /// Removes the warehouse named `name`. In-flight requests holding
    /// its `Arc` finish undisturbed; new lookups fail.
    ///
    /// # Errors
    ///
    /// [`WarlockError::UnknownWarehouse`] when no such warehouse is
    /// loaded, and [`WarlockError::Config`] for the default warehouse —
    /// removing it would strand every unrouted and protocol-v1 request
    /// with no way to re-point the default at runtime.
    pub fn unload(&self, name: &str) -> Result<(), WarlockError> {
        if name == self.default {
            return Err(WarlockError::Config(format!(
                "cannot unload the default warehouse `{name}`"
            )));
        }
        match self.lock().remove(name) {
            Some(_) => Ok(()),
            None => Err(WarlockError::UnknownWarehouse { name: name.into() }),
        }
    }

    /// Atomically re-reads the configuration file of the warehouse
    /// named `name` (see [`Warlock::reload_from_parsed`] for the
    /// copy-on-write semantics). The file is read and parsed before the
    /// warehouse's session lock is taken; on any failure the warehouse
    /// keeps serving its previous snapshot, and sibling warehouses —
    /// including their caches — are never touched.
    ///
    /// # Errors
    ///
    /// [`WarlockError::UnknownWarehouse`] for an unknown name;
    /// [`WarlockError::ReloadFailed`] (naming the warehouse, wrapping
    /// the cause) when the warehouse has no backing file or the re-read
    /// fails.
    pub fn reload(&self, name: &str) -> Result<(), WarlockError> {
        let warehouse = self.get(name)?;
        let failed = |source: WarlockError| WarlockError::ReloadFailed {
            name: name.into(),
            source: Box::new(source),
        };
        let path = warehouse.path().ok_or_else(|| {
            failed(WarlockError::Config(
                "warehouse has no configuration file to reload from".into(),
            ))
        })?;
        let parsed = crate::config_file::parse_config_path(path).map_err(failed)?;
        let result = warehouse
            .write_session()
            .reload_from_parsed(parsed)
            .map_err(failed);
        result
    }

    /// The warehouse named `name`.
    ///
    /// # Errors
    ///
    /// [`WarlockError::UnknownWarehouse`] when no such warehouse is
    /// loaded.
    pub fn get(&self, name: &str) -> Result<Arc<Warehouse>, WarlockError> {
        self.read()
            .get(name)
            .cloned()
            .ok_or_else(|| WarlockError::UnknownWarehouse { name: name.into() })
    }

    /// Resolves a request's routing field: an explicit name, or the
    /// registry default when the request did not route.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<Warehouse>, WarlockError> {
        self.get(name.unwrap_or(&self.default))
    }

    /// Health summaries of every loaded warehouse, sorted by name.
    pub fn list(&self) -> Vec<WarehouseStats> {
        let mut stats: Vec<WarehouseStats> = {
            let warehouses = self.read();
            // Collect the Arcs first: `stats()` prices nothing, but it
            // does take each warehouse's session lock, and holding the
            // map lock across that would serialize against loads.
            warehouses.values().cloned().collect::<Vec<_>>()
        }
        .iter()
        .map(|w| w.stats())
        .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Health counters of the warehouse named `name`.
    ///
    /// # Errors
    ///
    /// [`WarlockError::UnknownWarehouse`] when no such warehouse is
    /// loaded.
    pub fn stats(&self, name: &str) -> Result<WarehouseStats, WarlockError> {
        Ok(self.get(name)?.stats())
    }

    /// How many warehouses are loaded.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no warehouse is loaded.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_file::{demo_config, render_config};

    fn write_cfg(tag: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "warlock-registry-{tag}-{}-{:?}.cfg",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, contents).unwrap();
        path.display().to_string()
    }

    fn demo_cfg_text() -> String {
        render_config(&demo_config())
    }

    #[test]
    fn load_list_unload_round_trip() {
        let registry = Registry::new("us");
        assert!(registry.is_empty());
        let us = write_cfg("us", &demo_cfg_text());
        let eu = write_cfg("eu", &demo_cfg_text().replace("disks = 16", "disks = 64"));
        registry.load("us", &us).unwrap();
        registry.load("eu", &eu).unwrap();
        assert_eq!(registry.len(), 2);

        let listed = registry.list();
        assert_eq!(
            listed.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["eu", "us"],
            "listing is sorted by name"
        );
        assert!(listed.iter().all(|s| s.space_size == 168));
        assert!(listed.iter().all(|s| s.enumerated.is_none()));
        assert_eq!(listed[1].path.as_deref(), Some(us.as_str()));

        // Routing: explicit names and the default.
        assert_eq!(registry.resolve(Some("eu")).unwrap().name(), "eu");
        assert_eq!(registry.resolve(None).unwrap().name(), "us");
        assert_eq!(
            registry.resolve(Some("mars")).unwrap_err(),
            WarlockError::UnknownWarehouse {
                name: "mars".into()
            }
        );

        // The two warehouses advise independently.
        let us_report = registry
            .get("us")
            .unwrap()
            .session()
            .rank()
            .unwrap()
            .clone();
        let eu_report = registry
            .get("eu")
            .unwrap()
            .session()
            .rank()
            .unwrap()
            .clone();
        assert!(
            eu_report.top().unwrap().cost.response_ms < us_report.top().unwrap().cost.response_ms,
            "64-disk warehouse must respond faster"
        );
        assert_eq!(registry.stats("us").unwrap().enumerated, Some(168));

        registry.unload("eu").unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(
            registry.unload("eu").unwrap_err(),
            WarlockError::UnknownWarehouse { name: "eu".into() }
        );
        // The default warehouse cannot be unloaded: without it every
        // unrouted and v1 request would dead-end.
        let e = registry.unload("us").unwrap_err();
        assert_eq!(e.kind(), "config");
        assert!(e.to_string().contains("default"));
        assert_eq!(registry.len(), 1);
        let _ = std::fs::remove_file(us);
        let _ = std::fs::remove_file(eu);
    }

    #[test]
    fn duplicate_and_missing_loads_are_typed_and_atomic() {
        let registry = Registry::new("main");
        let cfg = write_cfg("dup", &demo_cfg_text());
        registry.load("main", &cfg).unwrap();
        assert_eq!(
            registry.load("main", &cfg).unwrap_err(),
            WarlockError::DuplicateWarehouse {
                name: "main".into()
            }
        );
        let e = registry
            .load("ghost", "/definitely/not/a/file.cfg")
            .unwrap_err();
        assert_eq!(e.kind(), "io");
        assert_eq!(registry.len(), 1, "failed load must register nothing");
        let _ = std::fs::remove_file(cfg);
    }

    #[test]
    fn reload_swaps_one_warehouse_without_disturbing_the_other() {
        let registry = Registry::new("us");
        let us = write_cfg("reload-us", &demo_cfg_text());
        let eu = write_cfg("reload-eu", &demo_cfg_text());
        registry.load("us", &us).unwrap();
        registry.load("eu", &eu).unwrap();
        let us_baseline = registry
            .get("us")
            .unwrap()
            .session()
            .rank()
            .unwrap()
            .clone();
        registry.get("eu").unwrap().session().rank().unwrap();
        let eu_cache_before = registry.stats("eu").unwrap().cache;

        // An in-flight reader on the old snapshot…
        let reader = registry.get("us").unwrap().session();

        std::fs::write(&us, demo_cfg_text().replace("disks = 16", "disks = 64")).unwrap();
        registry.reload("us").unwrap();

        // …finishes on it, while new sessions see the new configuration.
        assert_eq!(reader.system().num_disks, 16);
        assert_eq!(reader.rank().unwrap(), &us_baseline);
        let swapped = registry.get("us").unwrap().session();
        assert_eq!(swapped.system().num_disks, 64);
        assert!(
            swapped.rank().unwrap().top().unwrap().cost.response_ms
                < us_baseline.top().unwrap().cost.response_ms
        );
        // The sibling warehouse — snapshot and cache — is untouched.
        assert_eq!(registry.get("eu").unwrap().session().system().num_disks, 16);
        assert_eq!(registry.stats("eu").unwrap().cache, eu_cache_before);

        let _ = std::fs::remove_file(us);
        let _ = std::fs::remove_file(eu);
    }

    #[test]
    fn failed_reloads_are_typed_and_keep_the_old_snapshot() {
        let registry = Registry::new("main");
        let cfg = write_cfg("reload-bad", &demo_cfg_text());
        registry.load("main", &cfg).unwrap();
        registry
            .insert("adhoc", None, registry.get("main").unwrap().session())
            .unwrap();

        assert_eq!(
            registry.reload("ghost").unwrap_err(),
            WarlockError::UnknownWarehouse {
                name: "ghost".into()
            }
        );
        // No backing file → reload_failed.
        let e = registry.reload("adhoc").unwrap_err();
        assert_eq!(e.kind(), "reload_failed");
        assert!(e.to_string().contains("`adhoc`"));

        // A file that no longer parses → reload_failed, old snapshot kept.
        std::fs::write(&cfg, "[dimension broken\n").unwrap();
        let e = registry.reload("main").unwrap_err();
        assert_eq!(e.kind(), "reload_failed");
        assert!(e.to_string().contains(&cfg));
        assert_eq!(
            registry.get("main").unwrap().session().system().num_disks,
            16
        );
        let _ = std::fs::remove_file(cfg);
    }

    #[test]
    fn single_wraps_one_session_as_the_default() {
        let registry = Registry::single("default", demo_session());
        assert_eq!(registry.default_name(), "default");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.resolve(None).unwrap().name(), "default");
        assert_eq!(registry.get("default").unwrap().path(), None);
    }

    fn demo_session() -> Warlock {
        let parsed = demo_config();
        Warlock::builder()
            .schema(parsed.schema)
            .system(parsed.system)
            .mix(parsed.mix)
            .config(parsed.advisor)
            .parallelism(1)
            .build()
            .unwrap()
    }
}
