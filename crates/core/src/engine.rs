//! `PowerEngine` — the long-lived, thread-safe estimation facade.
//!
//! The engine owns a two-tier content-addressed model store:
//!
//! 1. an in-memory LRU ([`crate::cache::LruCache`]) of characterizations,
//!    keyed by [`ModelKey`] = (module spec, configuration hash, shard
//!    count), capacity-bounded with hit/miss/eviction counters;
//! 2. an optional on-disk store of model artifacts, so characterizations
//!    survive the process and warm the next one. The engine is the one
//!    public way into a store: the experiment binaries, `hdpm serve` and
//!    `hdpm server` all load, fetch from peers and characterize through
//!    it.
//!
//! Cache misses characterize on demand with **single-flight
//! deduplication**: concurrent requests for the same key block on one
//! characterization instead of racing N gate-level runs. The leader
//! publishes its result (or failure) through a condvar-guarded flight
//! slot; waiters receive the shared `Arc` with no recomputation. With a
//! disk tier, the leader publishes *before* the artifact is durable: a
//! persist thread writes it afterwards, still under the artifact's lock.
//!
//! ```
//! use hdpm_core::prelude::*;
//! use hdpm_netlist::{ModuleKind, ModuleSpec};
//!
//! # fn main() -> Result<(), hdpm_core::ModelError> {
//! let engine = PowerEngine::new(EngineOptions {
//!     config: CharacterizationConfig::builder().max_patterns(1500).build()?,
//!     ..EngineOptions::default()
//! });
//! let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
//! let first = engine.model(spec)?; // characterizes
//! let again = engine.model(spec)?; // memory hit, shares the Arc
//! assert_eq!(first.model, again.model);
//! assert_eq!(engine.stats().characterizations, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

use hdpm_datamodel::HdDistribution;
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_telemetry as telemetry;
use hdpm_telemetry::{Stage, TraceCtx};
use serde::Serialize;

use crate::cache::{config_fingerprint, LruCache, ModelKey};
use crate::characterize::{characterize_sharded, Characterization, CharacterizationConfig};
use crate::error::ModelError;
use crate::fidelity::{self, Fidelity};
use crate::library::{ModelLibrary, PendingSave};
use crate::model::HdModel;
use crate::regress::{ParameterizableModel, Prototype};
use crate::shard::{parallel_map_ordered, resolve_threads, ShardingConfig};

/// Construction options of a [`PowerEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Characterization configuration applied to every cache miss.
    pub config: CharacterizationConfig,
    /// Characterization run shape; `None` is the same as
    /// [`ShardingConfig::SEQUENTIAL`] (`shards: 0`, the sequential
    /// reference stream). The shard count is part of the cache key, the
    /// thread count is not (it never changes a result bit).
    pub sharding: Option<ShardingConfig>,
    /// Root directory of the on-disk tier; `None` keeps the engine
    /// memory-only.
    pub disk_root: Option<PathBuf>,
    /// Capacity of the in-memory LRU tier (entries).
    pub capacity: usize,
}

impl Default for EngineOptions {
    /// Defaults: the default characterization configuration, the default
    /// sharding (8 shards, all cores), no disk tier, 64 cached models.
    fn default() -> Self {
        EngineOptions {
            config: CharacterizationConfig::default(),
            sharding: Some(ShardingConfig::default()),
            disk_root: None,
            capacity: 64,
        }
    }
}

/// Where a fetched model came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheSource {
    /// In-memory LRU hit.
    Memory,
    /// Loaded from the on-disk library tier.
    Disk,
    /// Characterized on demand by this request.
    Fresh,
    /// Coalesced onto another request's in-flight characterization.
    Coalesced,
    /// No model at all: the tier-A closed-form structural estimate
    /// answered (fidelity ladder, [`Fidelity::Analytic`]).
    Analytic,
    /// A §5 regression over characterized sibling widths answered
    /// (fidelity ladder, [`Fidelity::Regressed`]).
    Regressed,
}

impl CacheSource {
    /// Lower-case wire name, as emitted by `hdpm serve`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
            CacheSource::Fresh => "fresh",
            CacheSource::Coalesced => "coalesced",
            CacheSource::Analytic => "analytic",
            CacheSource::Regressed => "regressed",
        }
    }
}

/// Counter snapshot of an engine's cache and characterization activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EngineStats {
    /// Live entries in the memory tier.
    pub entries: usize,
    /// Capacity bound of the memory tier.
    pub capacity: usize,
    /// Memory-tier lookups that hit.
    pub hits: u64,
    /// Memory-tier lookups that missed.
    pub misses: u64,
    /// Memory-tier evictions.
    pub evictions: u64,
    /// Misses served by the on-disk library tier.
    pub disk_hits: u64,
    /// Characterizations actually executed.
    pub characterizations: u64,
    /// Requests that coalesced onto an in-flight characterization.
    pub coalesced: u64,
    /// Characterizations currently in flight (registered leaders whose
    /// result has not been published yet). A live load indicator for
    /// servers sharing the engine, not a monotonic counter.
    pub inflight: usize,
    /// Estimates answered by the tier-A analytic model (fidelity ladder).
    pub analytic_served: u64,
    /// Estimates answered by a tier-B sibling regression (fidelity
    /// ladder).
    pub regressed_served: u64,
    /// Background fidelity upgrades completed (each one fetches one spec
    /// that was served below full fidelity, as a request would).
    pub upgrades_done: u64,
}

/// An analytic estimation reply: the §6.3 distribution estimate, the
/// §6.2 average-Hd estimate, and where the model came from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Estimate {
    /// Expected charge per cycle under the full Hd distribution.
    pub charge_per_cycle: f64,
    /// Charge interpolated at the average Hd only.
    pub via_average: f64,
    /// The average Hd of the queried distribution.
    pub average_hd: f64,
    /// Which tier served the model.
    pub source: CacheSource,
    /// Fidelity tier of the answer (the fidelity ladder's A/B/C label).
    pub fidelity: Fidelity,
    /// Confidence in `[0, 1]`: `1.0` for full-fidelity answers, the
    /// in-sample [`ParameterizableModel::coefficient_errors`] figure for
    /// tier B, and the fixed [`fidelity::ANALYTIC_CONFIDENCE`] prior for
    /// tier A.
    pub confidence: f64,
}

/// Outcome of [`PowerEngine::warm`]: how each requested spec was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct WarmReport {
    /// Specs requested (including duplicates).
    pub requested: usize,
    /// Served from the memory tier.
    pub memory: usize,
    /// Served from the disk tier.
    pub disk: usize,
    /// Characterized by this warm call.
    pub characterized: usize,
    /// Coalesced onto another in-flight characterization.
    pub coalesced: usize,
}

/// One in-flight characterization that concurrent requests coalesce on.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Ready(Arc<Characterization>),
    Failed(String),
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publish the leader's outcome and wake every waiter. Never panics,
    /// so a [`LeaderGuard`] can call it while unwinding.
    fn resolve(&self, outcome: Result<Arc<Characterization>, String>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = match outcome {
            Ok(c) => FlightState::Ready(c),
            Err(detail) => FlightState::Failed(detail),
        };
        self.cv.notify_all();
    }

    /// Block until the leader resolves the flight.
    fn wait(&self) -> Result<Arc<Characterization>, String> {
        let mut state = self.state.lock().expect("flight lock");
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.cv.wait(state).expect("flight lock");
                }
                FlightState::Ready(c) => return Ok(Arc::clone(c)),
                FlightState::Failed(detail) => return Err(detail.clone()),
            }
        }
    }
}

/// A leader's registration in the in-flight registry. Dropped before the
/// leader published (its characterization panicked), it unregisters the
/// key and fails the flight, so waiters return
/// [`ModelError::SingleFlight`] and the next request leads afresh instead
/// of blocking forever.
struct LeaderGuard<'a> {
    inner: &'a Mutex<EngineInner>,
    key: ModelKey,
    flight: Arc<Flight>,
    published: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // No panics in drop: a lock poisoned by the unwinding leader is
        // still consistent enough to unregister one key.
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .inflight
            .remove(&self.key);
        self.flight
            .resolve(Err("the characterization leader panicked".to_string()));
    }
}

/// Memory cache and in-flight registry, guarded by one mutex so the
/// "hit, wait, or become leader" decision is atomic.
struct EngineInner {
    cache: LruCache<ModelKey, Arc<Characterization>>,
    inflight: HashMap<ModelKey, Arc<Flight>>,
}

impl EngineInner {
    /// The one memory-tier hit path: `key`'s characterization, touched
    /// as most recently used and counted as a hit, with one hash of `key`.
    /// A miss counts as one in the cache's own tally when `count_miss`;
    /// the non-blocking [`PowerEngine::resident`] probe counts none.
    fn hit(&mut self, key: &ModelKey, count_miss: bool) -> Option<Arc<Characterization>> {
        let cached = if count_miss {
            self.cache.get(key)
        } else {
            self.cache.touch(key)
        }
        .map(Arc::clone);
        if cached.is_some() {
            telemetry::counter_add("engine.cache.hit", 1);
        }
        cached
    }
}

/// Number of module families, indexing the per-kind sibling epochs.
const KIND_COUNT: usize = ModuleKind::ALL.len();

/// Position of a kind in the stable [`ModuleKind::ALL`] order.
fn kind_index(kind: ModuleKind) -> usize {
    ModuleKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ModuleKind::ALL")
}

/// Bound of the background upgrade queue: beyond this, new upgrade
/// requests are dropped (and counted) rather than queued — a cold burst
/// must not build an unbounded characterization backlog.
const UPGRADE_QUEUE_CAP: usize = 64;

/// Entries memoized by the tier-A analytic-model cache.
const ANALYTIC_CACHE_CAP: usize = 256;

/// Memoized tier-B fit of one module family, tagged with the sibling
/// epoch it was computed at. `fit: None` is a *negative* memo — too few
/// siblings — which is just as important to cache: refitting on every
/// cold request would rescan the disk tier.
struct FamilyFit {
    epoch: u64,
    fit: Option<(Arc<ParameterizableModel>, f64)>,
}

/// Background-upgrade queue shared between the engine and its worker
/// thread. Lives in its own `Arc` so the worker can observe shutdown
/// even while the engine itself is being dropped.
struct UpgradeShared {
    state: Mutex<UpgradeState>,
    cv: Condvar,
}

struct UpgradeState {
    queue: VecDeque<ModuleSpec>,
    /// Keys queued or currently being upgraded — the dedup set that
    /// coalesces repeated low-fidelity serves of one spec into a single
    /// background characterization.
    pending: HashSet<ModelKey>,
    shutdown: bool,
    worker_running: bool,
}

/// Saves of artifacts already published to the memory tier, shared
/// between the engine and its persist thread (which holds no engine
/// reference, so dropping the engine can wait for it).
struct SaveShared {
    state: Mutex<SaveState>,
    /// Signals both a queued save and a finished one.
    cv: Condvar,
}

#[derive(Default)]
struct SaveState {
    queue: VecDeque<SaveJob>,
    /// Keys published to memory whose artifacts are not durable yet:
    /// queued, or being written.
    unsaved: HashSet<ModelKey>,
    /// Callers blocked until saves land: while any wait, nothing is
    /// held back for [`SAVE_DELAY`].
    waiters: usize,
    shutdown: bool,
    /// Test hook: while set, the persist thread leaves the queue alone,
    /// holding each published artifact in its not-yet-durable window.
    #[cfg(test)]
    paused: bool,
}

impl SaveState {
    /// The save to write now, or else how long to sleep before asking
    /// again (`None`: until woken).
    fn next(&mut self) -> Result<SaveJob, Option<Duration>> {
        #[cfg(test)]
        if self.paused {
            return Err(None);
        }
        let front = self.queue.front().ok_or(None)?;
        let wait = (front.queued + SAVE_DELAY).saturating_duration_since(Instant::now());
        if wait.is_zero() || self.waiters > 0 || self.shutdown {
            Ok(self.queue.pop_front().expect("a queued save"))
        } else {
            Err(Some(wait))
        }
    }
}

/// How long a save waits after its answer went out. A caller usually
/// sends its next request at once, and that request should not share
/// the CPU with serialization and fsyncs; the save then overlaps the
/// work that request starts (often the next characterization) instead.
/// A caller that needs the artifact cuts the wait short.
const SAVE_DELAY: Duration = Duration::from_millis(2);

/// One published characterization and the save that makes it durable.
struct SaveJob {
    key: ModelKey,
    characterization: Arc<Characterization>,
    save: PendingSave,
    queued: Instant,
}

/// The remote tier: what a disk-backed engine's single-flight leader
/// asks when memory and disk both miss, before it characterizes. See
/// [`PowerEngine::with_remote_tier`].
type RemoteTier = Box<dyn Fn(&ModelKey) + Send + Sync>;

/// The long-lived estimation facade: a thread-safe, two-tier
/// content-addressed cache of characterized models with single-flight
/// miss handling. `docs/engine.md` states the full contract.
pub struct PowerEngine {
    options: EngineOptions,
    /// `options.sharding` with `None` resolved to the sequential shape.
    sharding: ShardingConfig,
    /// [`crate::config_fingerprint`] of `options.config`, computed once:
    /// every [`ModelKey`] this engine builds carries it.
    config_hash: u64,
    library: Option<ModelLibrary>,
    inner: Mutex<EngineInner>,
    disk_hits: AtomicU64,
    characterizations: AtomicU64,
    coalesced: AtomicU64,
    // --- fidelity ladder ---
    /// Memoized tier-A analytic models (netlist build + stats per spec).
    analytic_cache: Mutex<LruCache<ModuleSpec, Arc<HdModel>>>,
    /// Memoized tier-B per-family fits, invalidated by `sibling_epochs`.
    family_fits: Mutex<HashMap<ModuleKind, FamilyFit>>,
    /// Bumped whenever a characterization of the kind lands in the memory
    /// cache; a family fit memoized at an older epoch refits.
    sibling_epochs: [AtomicU64; KIND_COUNT],
    analytic_served: AtomicU64,
    regressed_served: AtomicU64,
    upgrades_done: AtomicU64,
    upgrade: Arc<UpgradeShared>,
    upgrade_worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    remote_tier: Option<RemoteTier>,
    saves: Arc<SaveShared>,
    save_worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for PowerEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerEngine")
            .field("options", &self.options)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PowerEngine {
    /// Build an engine from options. When `disk_root` is set, the disk
    /// tier names each artifact by its [`ModelKey`] (configuration and
    /// shard count in the file name). Nothing touches the disk before the
    /// first miss.
    pub fn new(options: EngineOptions) -> Self {
        let sharding = options.sharding.unwrap_or(ShardingConfig::SEQUENTIAL);
        let library = options
            .disk_root
            .clone()
            .map(|root| ModelLibrary::new(root, options.config, sharding));
        let capacity = options.capacity.max(1);
        PowerEngine {
            sharding,
            config_hash: config_fingerprint(&options.config),
            library,
            inner: Mutex::new(EngineInner {
                cache: LruCache::new(capacity),
                inflight: HashMap::new(),
            }),
            options,
            disk_hits: AtomicU64::new(0),
            characterizations: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            analytic_cache: Mutex::new(LruCache::new(ANALYTIC_CACHE_CAP)),
            family_fits: Mutex::new(HashMap::new()),
            sibling_epochs: std::array::from_fn(|_| AtomicU64::new(0)),
            analytic_served: AtomicU64::new(0),
            regressed_served: AtomicU64::new(0),
            upgrades_done: AtomicU64::new(0),
            upgrade: Arc::new(UpgradeShared {
                state: Mutex::new(UpgradeState {
                    queue: VecDeque::new(),
                    pending: HashSet::new(),
                    shutdown: false,
                    worker_running: false,
                }),
                cv: Condvar::new(),
            }),
            upgrade_worker: Mutex::new(None),
            remote_tier: None,
            saves: Arc::new(SaveShared {
                state: Mutex::new(SaveState::default()),
                cv: Condvar::new(),
            }),
            save_worker: Mutex::new(None),
        }
    }

    /// This engine with `remote` as its remote tier: the one hook a
    /// key's single-flight leader calls when the key is in neither
    /// memory nor the disk tier, before it characterizes — so once per
    /// flight, on every miss path, never on a hit, and never without a
    /// disk tier. `remote` may admit a verified artifact for the key
    /// into the disk tier, which the leader then loads as a disk hit;
    /// otherwise the leader characterizes. `docs/engine.md` states the
    /// full contract (trace stages, panics). The server installs cluster
    /// routing here.
    pub fn with_remote_tier(mut self, remote: impl Fn(&ModelKey) + Send + Sync + 'static) -> Self {
        self.remote_tier = Some(Box::new(remote));
        self
    }

    /// The engine's construction options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The cache key a spec maps to under this engine's configuration:
    /// equal to [`ModelKey::new`] for the engine's config and shard
    /// count, built from the fingerprint taken at construction.
    pub fn key_for(&self, spec: ModuleSpec) -> ModelKey {
        ModelKey {
            spec,
            config_hash: self.config_hash,
            shards: self.sharding.shards,
        }
    }

    /// Fetch the characterization of `spec`, reporting which tier served
    /// it. Misses characterize on demand; concurrent misses on the same
    /// key coalesce onto one characterization (single flight).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Netlist`] for unconstructible specs,
    /// [`ModelError::StoreLock`] when another process holds the
    /// artifact's lock past its timeout, an I/O error when the disk tier
    /// cannot be written, and [`ModelError::SingleFlight`] when a
    /// coalesced request's leader failed (the leader receives the
    /// original error). A corrupt artifact is not an error: it is
    /// quarantined and treated as missing. Failures are not cached: a
    /// later request retries.
    pub fn fetch(
        &self,
        spec: ModuleSpec,
    ) -> Result<(Arc<Characterization>, CacheSource), ModelError> {
        self.fetch_traced(spec, &mut TraceCtx::disabled())
    }

    /// [`PowerEngine::fetch`] with per-stage timing recorded into
    /// `trace`: [`Stage::CacheLookup`] covers the hit/wait/lead decision
    /// under the engine lock, [`Stage::SingleFlightWait`] the time
    /// blocked on another request's characterization, and
    /// [`Stage::Characterize`] the leader's own characterization —
    /// including disk-tier loads and the remote tier's peer fetch, which
    /// are attributed here because they replace the characterization
    /// work.
    ///
    /// # Errors
    ///
    /// As for [`PowerEngine::fetch`].
    pub fn fetch_traced(
        &self,
        spec: ModuleSpec,
        trace: &mut TraceCtx,
    ) -> Result<(Arc<Characterization>, CacheSource), ModelError> {
        self.fetch_counted(spec, trace, true)
    }

    /// [`PowerEngine::fetch_traced`], counting a memory-tier miss only
    /// when `count_miss` — false for a request whose own lookup already
    /// counted it.
    fn fetch_counted(
        &self,
        spec: ModuleSpec,
        trace: &mut TraceCtx,
        count_miss: bool,
    ) -> Result<(Arc<Characterization>, CacheSource), ModelError> {
        let key = self.key_for(spec);
        enum Role {
            Hit(Arc<Characterization>),
            Waiter(Arc<Flight>),
            Leader(Arc<Flight>),
        }
        let role = trace.time(Stage::CacheLookup, || {
            let mut inner = self.inner.lock().expect("engine lock");
            if let Some(cached) = inner.hit(&key, count_miss) {
                Role::Hit(cached)
            } else if let Some(flight) = inner.inflight.get(&key) {
                Role::Waiter(Arc::clone(flight))
            } else {
                let flight = Arc::new(Flight::new());
                inner.inflight.insert(key, Arc::clone(&flight));
                Role::Leader(flight)
            }
        });
        match role {
            Role::Hit(cached) => Ok((cached, CacheSource::Memory)),
            Role::Waiter(flight) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("engine.singleflight.coalesced", 1);
                trace
                    .time(Stage::SingleFlightWait, || flight.wait())
                    .map(|c| (c, CacheSource::Coalesced))
                    .map_err(|detail| ModelError::SingleFlight {
                        key: key.to_string(),
                        detail,
                    })
            }
            Role::Leader(flight) => {
                let mut leader = LeaderGuard {
                    inner: &self.inner,
                    key,
                    flight,
                    published: false,
                };
                telemetry::counter_add("engine.cache.miss", 1);
                let _span = telemetry::span("engine.miss");
                let outcome = trace
                    .time(Stage::Characterize, || self.load_or_characterize(key))
                    .map(|(c, source, save)| {
                        // Queue the save before publishing, so the key
                        // counts as unsaved from the moment it is served.
                        if let Some(save) = save {
                            self.submit_save(SaveJob {
                                key,
                                characterization: Arc::clone(&c),
                                save,
                                queued: Instant::now(),
                            });
                        }
                        (c, source)
                    });
                let mut inner = self.inner.lock().expect("engine lock");
                inner.inflight.remove(&key);
                match &outcome {
                    Ok((c, _)) => {
                        if let Some(evicted) = inner.cache.insert(key, Arc::clone(c)) {
                            telemetry::counter_add("engine.cache.eviction", 1);
                            telemetry::event(
                                telemetry::Level::Debug,
                                "engine.evict",
                                &[("key", evicted.to_string().into())],
                            );
                        }
                        // A new characterized sibling landed: any tier-B
                        // family fit memoized for this kind is stale.
                        self.sibling_epochs[kind_index(spec.kind)].fetch_add(1, Ordering::Release);
                        leader.flight.resolve(Ok(Arc::clone(c)));
                    }
                    Err(e) => leader.flight.resolve(Err(e.to_string())),
                }
                leader.published = true;
                outcome
            }
        }
    }

    /// The memory tier alone: `spec`'s resident characterization,
    /// touched and counted exactly as a [`PowerEngine::fetch_traced`]
    /// hit, or `None` when it is not resident. Never loads, waits or
    /// characterizes, so a thread that must not block can call it; a
    /// miss counts nothing, because the caller falls back to a fetch
    /// that counts it.
    pub fn resident(
        &self,
        spec: ModuleSpec,
        trace: &mut TraceCtx,
    ) -> Option<Arc<Characterization>> {
        let key = self.key_for(spec);
        trace.time(Stage::CacheLookup, || {
            self.inner.lock().expect("engine lock").hit(&key, false)
        })
    }

    /// [`PowerEngine::fetch`] without the source annotation.
    ///
    /// # Errors
    ///
    /// As for [`PowerEngine::fetch`].
    pub fn model(&self, spec: ModuleSpec) -> Result<Arc<Characterization>, ModelError> {
        self.fetch(spec).map(|(c, _)| c)
    }

    /// Resolve a miss below the memory tier: the disk artifact if a
    /// valid one is stored (read once), else whatever the remote tier
    /// admits, else a fresh characterization — with, on a disk tier, the
    /// save that stores it once published. A corrupt artifact counts as
    /// none: the store quarantines it before the remote tier is asked.
    fn load_or_characterize(
        &self,
        key: ModelKey,
    ) -> Result<(Arc<Characterization>, CacheSource, Option<PendingSave>), ModelError> {
        let (result, save) = match &self.library {
            None => {
                let netlist = key.spec.build()?.validate()?;
                let fresh = characterize_sharded(&netlist, &self.options.config, &self.sharding)?;
                (fresh, None)
            }
            Some(library) => match library.load_or_quarantine(&key)? {
                Some(stored) => (stored, None),
                None => {
                    if let Some(remote) = &self.remote_tier {
                        remote(&key);
                    }
                    // Under the lock: the remote tier's admission, a
                    // concurrent writer's artifact, or a characterization.
                    library.load_or_characterize(&key)?
                }
            },
        };
        // On a disk tier, only a characterization has a save to make.
        let source = if self.library.is_some() && save.is_none() {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("engine.disk.hit", 1);
            CacheSource::Disk
        } else {
            self.characterizations.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("engine.characterize", 1);
            CacheSource::Fresh
        };
        Ok((Arc::new(result), source, save))
    }

    /// Hand a published characterization's save to the persist thread,
    /// starting the thread on first use.
    fn submit_save(&self, job: SaveJob) {
        let mut worker = self.save_worker.lock().expect("save worker lock");
        {
            let mut state = self.saves.state.lock().expect("save lock");
            state.unsaved.insert(job.key);
            state.queue.push_back(job);
        }
        self.saves.cv.notify_all();
        if worker.is_none() {
            let shared = Arc::clone(&self.saves);
            let handle = std::thread::Builder::new()
                .name("hdpm-persist".into())
                .spawn(move || save_worker(&shared))
                .expect("spawn persist worker");
            *worker = Some(handle);
        }
    }

    /// Block until `spec`'s artifact is durable, if this engine published
    /// it and its save is still queued or running. Returns at once
    /// otherwise — including when the artifact was never this engine's
    /// to write. A store reader (a peer's model fetch) calls this so it
    /// never misses an artifact that is served but not yet on disk.
    pub fn wait_saved(&self, spec: ModuleSpec) {
        let key = self.key_for(spec);
        self.wait_saves_until(|state| !state.unsaved.contains(&key));
    }

    /// Block until every artifact this engine has published is durable.
    /// Server shutdown calls this; dropping the engine does too.
    pub fn wait_all_saved(&self) {
        self.wait_saves_until(|state| state.unsaved.is_empty());
    }

    fn wait_saves_until(&self, done: impl Fn(&SaveState) -> bool) {
        let mut state = self.saves.state.lock().expect("save lock");
        if done(&state) {
            return;
        }
        state.waiters += 1;
        self.saves.cv.notify_all();
        while !done(&state) {
            state = self.saves.cv.wait(state).expect("save lock");
        }
        state.waiters -= 1;
    }

    /// Analytic power estimate of `spec` under an Hd distribution: the
    /// §6.3 expected charge plus the §6.2 average-Hd interpolation,
    /// served from the cache at full fidelity.
    ///
    /// # Errors
    ///
    /// As for [`PowerEngine::fetch`], plus
    /// [`ModelError::WidthMismatch`] if the distribution width differs
    /// from the module's input width.
    pub fn estimate(
        &self,
        spec: ModuleSpec,
        dist: &HdDistribution,
    ) -> Result<Estimate, ModelError> {
        self.estimate_full(spec, dist, &mut TraceCtx::disabled())
    }

    /// [`PowerEngine::estimate`] under a fidelity floor, with per-stage
    /// timing recorded into `trace` (the fetch stages, see
    /// [`PowerEngine::fetch_traced`], plus [`Stage::Estimate`] covering
    /// the distribution and interpolation math; pass
    /// [`TraceCtx::disabled`] to skip it). Answers from the **best tier
    /// instantly available** that is at least `floor`, and upgrades
    /// toward full fidelity in the background:
    ///
    /// * A model already in memory or on disk answers at
    ///   [`Fidelity::Full`] exactly like [`PowerEngine::estimate`].
    /// * Otherwise, with `floor <= Regressed` and enough characterized
    ///   sibling widths of the family, a §5 regression answers at
    ///   [`Fidelity::Regressed`] in microseconds.
    /// * Otherwise, with `floor == Analytic`, the closed-form
    ///   [`fidelity::analytic_model`] answers at [`Fidelity::Analytic`]
    ///   in nanoseconds-to-microseconds.
    /// * Only when the floor cannot be met instantly does the call block
    ///   on the miss path, remote tier first (`floor == Full` always
    ///   does; `floor == Regressed` does when the family has too few
    ///   siblings).
    ///
    /// After any below-full answer the spec is queued for a **background
    /// upgrade** (bounded, deduplicated by cache key): a worker thread
    /// fetches it through the same single-flight path as a request
    /// (remote tier included, see [`PowerEngine::with_remote_tier`]), so
    /// the next request for the same key answers at full fidelity.
    /// Requires `Arc<Self>` because the worker holds a weak reference to
    /// the engine.
    ///
    /// # Errors
    ///
    /// As for [`PowerEngine::estimate`]; tier-A/B failures surface the
    /// same structured netlist/width errors the full path would.
    pub fn estimate_at(
        self: &Arc<Self>,
        spec: ModuleSpec,
        dist: &HdDistribution,
        floor: Fidelity,
        trace: &mut TraceCtx,
    ) -> Result<Estimate, ModelError> {
        if floor == Fidelity::Full {
            return self.estimate_full(spec, dist, trace);
        }
        // Full fidelity already local? Serve it — better than any floor
        // and still instant (memory lookup / one artifact read). This
        // lookup counts the request's one miss; the fetch below counts
        // none.
        let key = self.key_for(spec);
        let cached = trace.time(Stage::CacheLookup, || {
            self.inner.lock().expect("engine lock").hit(&key, true)
        });
        if let Some(c) = cached {
            return full_estimate((c, CacheSource::Memory), dist, trace);
        }
        if !self.library.as_ref().is_some_and(|l| l.contains(&key)) {
            // Tier B: regression over characterized siblings, if the
            // family has enough of them.
            if let Some((family, confidence)) = self.family_fit(spec.kind) {
                let estimate = trace.time(Stage::Estimate, || {
                    let predicted = family.predict_model(spec.width);
                    let tier = (CacheSource::Regressed, Fidelity::Regressed, confidence);
                    model_estimate(&predicted, dist, tier)
                })?;
                self.regressed_served.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("engine.fidelity.regressed", 1);
                self.enqueue_upgrade(spec);
                return Ok(estimate);
            }
            // Tier A: the closed-form structural estimate, floor permitting.
            if floor == Fidelity::Analytic {
                let model = self.analytic_model_for(spec)?;
                let tier = (
                    CacheSource::Analytic,
                    Fidelity::Analytic,
                    fidelity::ANALYTIC_CONFIDENCE,
                );
                let estimate =
                    trace.time(Stage::Estimate, || model_estimate(&model, dist, tier))?;
                self.analytic_served.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("engine.fidelity.analytic", 1);
                self.enqueue_upgrade(spec);
                return Ok(estimate);
            }
        }
        // On disk, or floor == Regressed with no family fit (the floor
        // cannot be met instantly): take the full miss path.
        let fetched = self.fetch_counted(spec, trace, false)?;
        full_estimate(fetched, dist, trace)
    }

    /// The full-fidelity path: fetch (or characterize) the model, then
    /// estimate.
    fn estimate_full(
        &self,
        spec: ModuleSpec,
        dist: &HdDistribution,
        trace: &mut TraceCtx,
    ) -> Result<Estimate, ModelError> {
        let fetched = self.fetch_traced(spec, trace)?;
        full_estimate(fetched, dist, trace)
    }

    /// The memoized tier-B fit of a family, refitted when a new
    /// characterized sibling has landed since the memo was taken.
    /// Returns the fit and its confidence figure, or `None` when the
    /// family has too few characterized siblings (also memoized).
    fn family_fit(&self, kind: ModuleKind) -> Option<(Arc<ParameterizableModel>, f64)> {
        let epoch = self.sibling_epochs[kind_index(kind)].load(Ordering::Acquire);
        {
            let fits = self.family_fits.lock().expect("family fits lock");
            if let Some(memo) = fits.get(&kind) {
                if memo.epoch == epoch {
                    return memo.fit.clone();
                }
            }
        }
        // Harvest characterized siblings: memory tier first, then any
        // disk artifacts of this configuration not already seen.
        let mut prototypes: Vec<Prototype> = {
            let inner = self.inner.lock().expect("engine lock");
            inner
                .cache
                .iter()
                .filter(|(key, _)| key.spec.kind == kind)
                .map(|(key, c)| Prototype {
                    spec: key.spec,
                    model: c.model.clone(),
                })
                .collect()
        };
        if let Some(library) = &self.library {
            for key in library.stored_keys() {
                let spec = key.spec;
                if spec.kind != kind
                    || key != self.key_for(spec)
                    || prototypes.iter().any(|p| p.spec == spec)
                {
                    continue;
                }
                if let Some(c) = library.load_if_present(&key) {
                    prototypes.push(Prototype {
                        spec,
                        model: c.model,
                    });
                }
            }
        }
        let fit = ParameterizableModel::fit(&prototypes).ok().map(|fit| {
            let confidence = regressed_confidence(&fit, &prototypes);
            (Arc::new(fit), confidence)
        });
        if fit.is_some() {
            telemetry::counter_add("engine.fidelity.family_fit", 1);
        }
        let mut fits = self.family_fits.lock().expect("family fits lock");
        fits.insert(
            kind,
            FamilyFit {
                epoch,
                fit: fit.clone(),
            },
        );
        fit
    }

    /// The memoized tier-A analytic model of a spec.
    fn analytic_model_for(&self, spec: ModuleSpec) -> Result<Arc<HdModel>, ModelError> {
        {
            let mut cache = self.analytic_cache.lock().expect("analytic cache lock");
            if let Some(model) = cache.get(&spec) {
                return Ok(Arc::clone(model));
            }
        }
        let model = Arc::new(fidelity::analytic_model(spec)?);
        self.analytic_cache
            .lock()
            .expect("analytic cache lock")
            .insert(spec, Arc::clone(&model));
        Ok(model)
    }

    /// Upgrade requests queued or running right now, plus published
    /// artifacts whose saves have not made them durable yet — a test/ops
    /// hook, racy by nature. Zero means every upgrade so far has landed
    /// on disk (with a disk tier): an upgrade queues its save before it
    /// leaves the upgrade set, and the two are read in that order.
    pub fn pending_upgrades(&self) -> usize {
        let upgrades = self
            .upgrade
            .state
            .lock()
            .expect("upgrade lock")
            .pending
            .len();
        upgrades + self.saves.state.lock().expect("save lock").unsaved.len()
    }

    /// Queue a background fidelity upgrade for `spec`: bounded, and
    /// deduplicated by cache key so repeated low-fidelity serves of one
    /// spec coalesce into a single characterization.
    fn enqueue_upgrade(self: &Arc<Self>, spec: ModuleSpec) {
        let key = self.key_for(spec);
        let spawn_worker = {
            let mut state = self.upgrade.state.lock().expect("upgrade lock");
            if state.shutdown || state.pending.contains(&key) {
                return;
            }
            if state.queue.len() >= UPGRADE_QUEUE_CAP {
                telemetry::counter_add("engine.upgrade.dropped", 1);
                return;
            }
            state.pending.insert(key);
            state.queue.push_back(spec);
            telemetry::counter_add("engine.upgrade.enqueued", 1);
            !std::mem::replace(&mut state.worker_running, true)
        };
        self.upgrade.cv.notify_one();
        if spawn_worker {
            let weak = Arc::downgrade(self);
            let shared = Arc::clone(&self.upgrade);
            let handle = std::thread::Builder::new()
                .name("hdpm-upgrade".into())
                .spawn(move || upgrade_worker(&weak, &shared))
                .expect("spawn upgrade worker");
            *self.upgrade_worker.lock().expect("upgrade worker lock") = Some(handle);
        }
    }

    /// One background upgrade: a plain fetch, which loads, takes from
    /// the remote tier or characterizes the spec, caches it and — with a
    /// disk tier — persists it. A failure, a panic included, is logged
    /// and the upgrade counted done, so the one upgrade thread lives on.
    fn run_upgrade(&self, spec: ModuleSpec) {
        let error = match panic::catch_unwind(AssertUnwindSafe(|| self.fetch(spec))) {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(e.to_string()),
            Err(panic) => {
                let message = (panic.downcast_ref::<&str>().map(|m| m.to_string()))
                    .or_else(|| panic.downcast_ref::<String>().cloned());
                Some(format!("panicked: {}", message.unwrap_or_default()))
            }
        };
        if let Some(error) = error {
            telemetry::event(
                telemetry::Level::Warn,
                "engine.upgrade.failed",
                &[("spec", spec.to_string().into()), ("error", error.into())],
            );
        }
        self.upgrades_done.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("engine.upgrade.done", 1);
    }

    /// Pre-populate the cache for `specs` on up to `threads` worker
    /// threads (0 = all cores). Duplicate specs coalesce through the
    /// single-flight path, so each distinct key characterizes at most
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the first per-spec error in input order; remaining specs
    /// may or may not have been cached.
    pub fn warm(&self, specs: &[ModuleSpec], threads: usize) -> Result<WarmReport, ModelError> {
        let _span = telemetry::span("engine.warm");
        let results = parallel_map_ordered(specs, resolve_threads(threads), |_, spec| {
            self.fetch(*spec).map(|(_, source)| source)
        });
        let mut report = WarmReport {
            requested: specs.len(),
            ..WarmReport::default()
        };
        for result in results {
            match result? {
                CacheSource::Memory => report.memory += 1,
                CacheSource::Disk => report.disk += 1,
                CacheSource::Fresh => report.characterized += 1,
                CacheSource::Coalesced => report.coalesced += 1,
                // `fetch` always resolves a real model.
                CacheSource::Analytic | CacheSource::Regressed => unreachable!(),
            }
        }
        Ok(report)
    }

    /// Up to `limit` cache keys ordered most-recently-used first — the
    /// working set this engine is actually serving. Cluster warm-key
    /// gossip advertises these to peers.
    pub fn hottest_keys(&self, limit: usize) -> Vec<ModelKey> {
        let inner = self.inner.lock().expect("engine lock");
        inner.cache.hottest(limit)
    }

    /// Whether a model for `spec` is already available locally, in either
    /// tier, without fetching (and in particular without characterizing).
    /// Racy by nature — a concurrent eviction or store write can change
    /// the answer — so callers treat it as a hint, not a guarantee.
    pub fn has_model(&self, spec: ModuleSpec) -> bool {
        let key = self.key_for(spec);
        {
            let inner = self.inner.lock().expect("engine lock");
            if inner.cache.peek(&key).is_some() {
                return true;
            }
        }
        self.library
            .as_ref()
            .is_some_and(|library| library.contains(&key))
    }

    /// Counter snapshot of the cache tiers and characterization activity.
    pub fn stats(&self) -> EngineStats {
        let inner = self.inner.lock().expect("engine lock");
        EngineStats {
            entries: inner.cache.len(),
            capacity: inner.cache.capacity(),
            hits: inner.cache.hits(),
            misses: inner.cache.misses(),
            evictions: inner.cache.evictions(),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            characterizations: self.characterizations.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            inflight: inner.inflight.len(),
            analytic_served: self.analytic_served.load(Ordering::Relaxed),
            regressed_served: self.regressed_served.load(Ordering::Relaxed),
            upgrades_done: self.upgrades_done.load(Ordering::Relaxed),
        }
    }
}

impl Drop for PowerEngine {
    /// Stop the background upgrade worker, then the persist thread once
    /// it has written every queued save. Joins the upgrade worker unless
    /// the engine is being dropped *on* the worker thread (the worker
    /// held the last `Arc`), where a self-join would deadlock — the
    /// thread just detaches and exits on the shutdown flag it already
    /// observed.
    fn drop(&mut self) {
        {
            let mut state = self.upgrade.state.lock().expect("upgrade lock");
            state.shutdown = true;
        }
        self.upgrade.cv.notify_all();
        let handle = self
            .upgrade_worker
            .lock()
            .expect("upgrade worker lock")
            .take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        self.saves.state.lock().expect("save lock").shutdown = true;
        self.saves.cv.notify_all();
        let handle = self.save_worker.lock().expect("save worker lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// The full-fidelity estimate from a fetched model.
fn full_estimate(
    (characterization, source): (Arc<Characterization>, CacheSource),
    dist: &HdDistribution,
    trace: &mut TraceCtx,
) -> Result<Estimate, ModelError> {
    trace.time(Stage::Estimate, || {
        model_estimate(&characterization.model, dist, (source, Fidelity::Full, 1.0))
    })
}

/// An estimate from one rung of the fidelity ladder, labeled with where
/// it came from, its tier and its confidence.
fn model_estimate(
    model: &HdModel,
    dist: &HdDistribution,
    (source, fidelity, confidence): (CacheSource, Fidelity, f64),
) -> Result<Estimate, ModelError> {
    Ok(Estimate {
        charge_per_cycle: model.estimate_distribution(dist)?,
        via_average: model.estimate_interpolated(dist.mean()),
        average_hd: dist.mean(),
        source,
        fidelity,
        confidence,
    })
}

/// Confidence of a tier-B fit: the mean in-sample
/// [`ParameterizableModel::coefficient_errors`] percentage across the
/// prototypes it was fitted on, mapped to `(0, 0.95]` via
/// `1 / (1 + mean/100)` — an exact fit approaches 0.95 (never the 1.0
/// reserved for full fidelity), a 100%-off fit reports 0.5.
fn regressed_confidence(fit: &ParameterizableModel, prototypes: &[Prototype]) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for prototype in prototypes {
        if let Ok(errors) = fit.coefficient_errors(prototype.spec, &prototype.model) {
            total += errors.iter().sum::<f64>();
            count += errors.len();
        }
    }
    let mean_pct = if count > 0 { total / count as f64 } else { 0.0 };
    (1.0 / (1.0 + mean_pct / 100.0)).min(0.95)
}

/// The background upgrade loop: pop specs, upgrade them through the
/// engine, exit on shutdown or once the engine itself is gone. Holds
/// only a weak engine reference so a dropped engine is never kept alive
/// by its own worker.
fn upgrade_worker(engine: &Weak<PowerEngine>, shared: &Arc<UpgradeShared>) {
    loop {
        let spec = {
            let mut state = shared.state.lock().expect("upgrade lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(spec) = state.queue.pop_front() {
                    break spec;
                }
                state = shared.cv.wait(state).expect("upgrade lock");
            }
        };
        let Some(engine) = engine.upgrade() else {
            return;
        };
        let key = engine.key_for(spec);
        engine.run_upgrade(spec);
        shared
            .state
            .lock()
            .expect("upgrade lock")
            .pending
            .remove(&key);
        // `engine` (possibly the last Arc) drops here; PowerEngine::drop
        // detects the self-join case.
    }
}

/// The persist loop: write each published characterization's artifact
/// in queue order, [`SAVE_DELAY`] after its answer unless a caller is
/// waiting, and exit once shut down with the queue drained. A
/// failed save is counted and logged; the answers already served stand,
/// and the key's next miss characterizes again.
fn save_worker(shared: &SaveShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("save lock");
            loop {
                state = match state.next() {
                    Ok(job) => break job,
                    // Shut down with nothing left to write.
                    Err(_) if state.shutdown => return,
                    Err(Some(wait)) => shared.cv.wait_timeout(state, wait).expect("save lock").0,
                    Err(None) => shared.cv.wait(state).expect("save lock"),
                };
            }
        };
        let path = job.save.path().to_path_buf();
        if let Err(e) = job.save.commit(&job.characterization) {
            telemetry::counter_add("engine.save.failed", 1);
            telemetry::event(
                telemetry::Level::Warn,
                "engine.save.failed",
                &[
                    ("key", job.key.to_string().into()),
                    ("artifact", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
        shared
            .state
            .lock()
            .expect("save lock")
            .unsaved
            .remove(&job.key);
        shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use hdpm_netlist::ModuleKind;

    fn quick_options() -> EngineOptions {
        EngineOptions {
            config: CharacterizationConfig {
                max_patterns: 1500,
                ..CharacterizationConfig::default()
            },
            sharding: Some(ShardingConfig {
                shards: 4,
                threads: 1,
            }),
            disk_root: None,
            capacity: 4,
        }
    }

    #[test]
    fn memory_tier_serves_repeat_requests() {
        let engine = PowerEngine::new(quick_options());
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let (first, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh);
        let (second, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Memory);
        assert!(Arc::ptr_eq(&first, &second), "hit shares the Arc");
        let stats = engine.stats();
        assert_eq!(stats.characterizations, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.inflight, 0, "no characterization left registered");
    }

    /// The non-blocking lookup never characterizes and counts no miss;
    /// a hit through it counts like a fetch hit.
    #[test]
    fn resident_lookup_counts_hits_only() {
        let engine = PowerEngine::new(quick_options());
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let mut trace = TraceCtx::disabled();
        assert!(engine.resident(spec, &mut trace).is_none());
        assert_eq!((engine.stats().misses, engine.stats().entries), (0, 0));
        let (fetched, _) = engine.fetch(spec).unwrap();
        let resident = engine.resident(spec, &mut trace).expect("resident");
        assert!(Arc::ptr_eq(&fetched, &resident));
        let stats = engine.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.characterizations),
            (1, 1, 1)
        );
    }

    /// A resident hit touches the LRU as a fetch hit does: the model it
    /// took survives the next eviction, and the untouched one goes.
    #[test]
    fn resident_lookup_refreshes_eviction_order() {
        let engine = PowerEngine::new(EngineOptions {
            capacity: 2,
            ..quick_options()
        });
        let specs: Vec<ModuleSpec> = [4usize, 5, 6]
            .iter()
            .map(|&w| ModuleSpec::new(ModuleKind::RippleAdder, w))
            .collect();
        let mut trace = TraceCtx::disabled();
        engine.model(specs[0]).unwrap();
        engine.model(specs[1]).unwrap();
        // Touch: specs[1] becomes LRU.
        assert!(engine.resident(specs[0], &mut trace).is_some());
        engine.model(specs[2]).unwrap();
        assert!(engine.resident(specs[0], &mut trace).is_some(), "touched");
        assert!(engine.resident(specs[1], &mut trace).is_none(), "evicted");
        let stats = engine.stats();
        assert_eq!((stats.evictions, stats.hits, stats.misses), (1, 2, 3));
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let engine = PowerEngine::new(EngineOptions {
            capacity: 2,
            ..quick_options()
        });
        let specs: Vec<ModuleSpec> = [4usize, 5, 6]
            .iter()
            .map(|&w| ModuleSpec::new(ModuleKind::RippleAdder, w))
            .collect();
        engine.model(specs[0]).unwrap();
        engine.model(specs[1]).unwrap();
        engine.model(specs[0]).unwrap(); // touch: specs[1] becomes LRU
        engine.model(specs[2]).unwrap(); // evicts specs[1]
        assert_eq!(engine.stats().evictions, 1);
        let (_, source) = engine.fetch(specs[0]).unwrap();
        assert_eq!(source, CacheSource::Memory, "survivor still cached");
        let (_, source) = engine.fetch(specs[1]).unwrap();
        assert_eq!(source, CacheSource::Fresh, "victim re-characterizes");
        assert_eq!(engine.stats().characterizations, 4);
    }

    #[test]
    fn disk_tier_survives_engine_restart() {
        let root = crate::test_support::TempDir::new("engine_disk");
        let options = EngineOptions {
            disk_root: Some(root.path().to_path_buf()),
            ..quick_options()
        };
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let first = {
            let engine = PowerEngine::new(options.clone());
            let (c, source) = engine.fetch(spec).unwrap();
            assert_eq!(source, CacheSource::Fresh);
            c.model.clone()
        };
        let engine = PowerEngine::new(options);
        let (c, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(c.model, first, "disk round-trip is exact");
        assert_eq!(engine.stats().disk_hits, 1);
        assert_eq!(engine.stats().characterizations, 0);
    }

    /// Hold (or let go of) every published artifact in its
    /// not-yet-durable window.
    fn pause_saves(engine: &PowerEngine, paused: bool) {
        engine.saves.state.lock().unwrap().paused = paused;
        engine.saves.cv.notify_all();
    }

    fn disk_options(root: &crate::test_support::TempDir) -> EngineOptions {
        EngineOptions {
            disk_root: Some(root.path().to_path_buf()),
            ..quick_options()
        }
    }

    fn artifact_path(engine: &PowerEngine, spec: ModuleSpec) -> PathBuf {
        let root = engine.options().disk_root.as_ref().expect("disk tier");
        root.join(engine.key_for(spec).artifact_file_name())
    }

    /// Poll `done` for up to 30 s.
    fn await_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// The leader wakes its waiters before the save: a coalesced request
    /// gets the full answer while the artifact is not on disk yet.
    #[test]
    fn coalesced_waiter_is_answered_before_the_artifact_is_durable() {
        let root = crate::test_support::TempDir::new("engine_window");
        let engine = Arc::new(PowerEngine::new(disk_options(&root)));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let path = artifact_path(&engine, spec);
        pause_saves(&engine, true);
        // The leader waits on the held lock until the waiter has joined.
        let held = crate::test_support::HeldStoreLock::hold(root.path(), &engine.key_for(spec));
        let leader = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.fetch(spec).unwrap().1)
        };
        await_until("the leader registers", || engine.stats().inflight == 1);
        let waiter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.fetch(spec).unwrap())
        };
        await_until("the waiter coalesces", || engine.stats().coalesced == 1);
        held.release();
        let (waited, source) = waiter.join().unwrap();
        assert_eq!(source, CacheSource::Coalesced);
        assert_eq!(leader.join().unwrap(), CacheSource::Fresh);
        assert!(!path.exists(), "answered before the save");
        assert_eq!(engine.pending_upgrades(), 1, "the unsaved artifact counts");
        pause_saves(&engine, false);
        engine.wait_all_saved();
        assert_eq!(engine.pending_upgrades(), 0);
        let (stored, _) = persist::load_classified::<Characterization>(
            &path,
            &persist::EnvelopeMeta::for_key(&engine.key_for(spec)),
        )
        .unwrap();
        assert_eq!(stored, *waited, "the saved artifact is the served one");
    }

    /// A background upgrade leaves the upgrade worker as soon as it is
    /// published; `pending_upgrades` stays above zero until its artifact
    /// is durable, and a restarted engine then loads it from disk.
    #[test]
    fn pending_upgrades_reach_zero_only_once_the_artifact_is_durable() {
        let root = crate::test_support::TempDir::new("engine_durable");
        let engine = Arc::new(PowerEngine::new(disk_options(&root)));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let path = artifact_path(&engine, spec);
        pause_saves(&engine, true);
        engine
            .estimate_at(
                spec,
                &flat_dist(8),
                Fidelity::Analytic,
                &mut TraceCtx::disabled(),
            )
            .unwrap();
        await_upgrades(&engine, 1);
        assert!(!path.exists());
        assert_eq!(engine.pending_upgrades(), 1, "the save is still pending");
        pause_saves(&engine, false);
        await_until("the upgrade is durable", || engine.pending_upgrades() == 0);
        assert!(path.exists(), "durable once nothing is pending");
        drop(engine);
        let restarted = PowerEngine::new(disk_options(&root));
        assert_eq!(restarted.fetch(spec).unwrap().1, CacheSource::Disk);
    }

    /// A save that fails after the answer went out is counted and
    /// logged; the answer stands, and the next engine characterizes
    /// again.
    #[test]
    fn failed_save_after_publish_is_counted_not_fatal() {
        hdpm_telemetry::set_recording(true);
        let failed = || {
            hdpm_telemetry::snapshot()
                .counters
                .get("engine.save.failed")
                .copied()
                .unwrap_or(0)
        };
        let before = failed();
        let root = crate::test_support::TempDir::new("engine_save_fails");
        let engine = PowerEngine::new(disk_options(&root));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let path = artifact_path(&engine, spec);
        pause_saves(&engine, true);
        let (_, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh, "the answer does not wait");
        // A directory where the artifact should go makes the rename fail.
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        pause_saves(&engine, false);
        engine.wait_all_saved();
        assert_eq!(engine.pending_upgrades(), 0);
        assert!(failed() > before, "the failed save is counted");
        assert_eq!(engine.fetch(spec).unwrap().1, CacheSource::Memory);
        assert!(
            !crate::store::lock_path(&path).exists(),
            "the lock is released"
        );
        drop(engine);
        std::fs::remove_dir_all(&path).unwrap();
        let restarted = PowerEngine::new(disk_options(&root));
        assert_eq!(restarted.fetch(spec).unwrap().1, CacheSource::Fresh);
    }

    /// A below-full request for a model on disk but not in memory is one
    /// lookup: one miss, one disk hit.
    #[test]
    fn below_full_request_served_from_disk_counts_one_miss() {
        let root = crate::test_support::TempDir::new("engine_one_miss");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        PowerEngine::new(disk_options(&root)).fetch(spec).unwrap();
        let engine = Arc::new(PowerEngine::new(disk_options(&root)));
        let estimate = engine
            .estimate_at(
                spec,
                &flat_dist(8),
                Fidelity::Analytic,
                &mut TraceCtx::disabled(),
            )
            .unwrap();
        assert_eq!(
            (estimate.source, estimate.fidelity),
            (CacheSource::Disk, Fidelity::Full)
        );
        let stats = engine.stats();
        assert_eq!(
            (
                stats.hits,
                stats.misses,
                stats.disk_hits,
                stats.characterizations
            ),
            (0, 1, 1, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn dirty_disk_tier_is_quarantined_not_fatal() {
        let root = crate::test_support::TempDir::new("engine_dirty");
        let options = EngineOptions {
            disk_root: Some(root.path().to_path_buf()),
            ..quick_options()
        };
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        // Plant a corrupt artifact exactly where the engine will look.
        let engine = PowerEngine::new(options.clone());
        let path = root.path().join(engine.key_for(spec).artifact_file_name());
        std::fs::write(&path, "{torn artifact").unwrap();
        let (_, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh, "recovered by characterizing");
        assert!(
            root.path().join("quarantine").is_dir(),
            "corrupt artifact moved aside"
        );
        // A second engine cold-starts from the repaired store.
        let engine = PowerEngine::new(options);
        let (_, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Disk);
    }

    #[test]
    fn failures_are_not_cached() {
        let engine = PowerEngine::new(quick_options());
        let bad = ModuleSpec::new(ModuleKind::CsaMultiplier, 1usize);
        assert!(matches!(engine.model(bad), Err(ModelError::Netlist(_))));
        // The failed flight must be cleared so a retry re-attempts (and
        // fails with the structured error again, not a stale flight).
        assert!(matches!(engine.model(bad), Err(ModelError::Netlist(_))));
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn warm_reports_sources() {
        let engine = PowerEngine::new(quick_options());
        let specs: Vec<ModuleSpec> = [4usize, 5]
            .iter()
            .map(|&w| ModuleSpec::new(ModuleKind::RippleAdder, w))
            .collect();
        let report = engine.warm(&specs, 2).unwrap();
        assert_eq!(report.requested, 2);
        assert_eq!(report.characterized, 2);
        let report = engine.warm(&specs, 2).unwrap();
        assert_eq!(report.memory, 2);
        assert_eq!(engine.stats().characterizations, 2);
    }

    #[test]
    fn estimate_serves_from_cache() {
        let engine = PowerEngine::new(quick_options());
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let m = 8; // two 4-bit operands
        let dist = HdDistribution::from_histogram(&{
            let mut h = vec![0u64; m + 1];
            h[2] = 50;
            h[6] = 50;
            h
        });
        let cold = engine.estimate(spec, &dist).unwrap();
        assert_eq!(cold.source, CacheSource::Fresh);
        let warm = engine.estimate(spec, &dist).unwrap();
        assert_eq!(warm.source, CacheSource::Memory);
        assert_eq!(cold.charge_per_cycle, warm.charge_per_cycle);
        assert!(warm.charge_per_cycle > 0.0);
        assert_eq!(warm.average_hd, dist.mean());
    }

    #[test]
    fn traced_fetch_attributes_stage_time() {
        let engine = Arc::new(PowerEngine::new(quick_options()));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);

        let mut cold = TraceCtx::new();
        let (_, source) = engine.fetch_traced(spec, &mut cold).unwrap();
        assert_eq!(source, CacheSource::Fresh);
        assert!(
            cold.stage_ns(Stage::Characterize) > 0,
            "leader time lands in the characterize stage"
        );
        assert_eq!(cold.stage_ns(Stage::SingleFlightWait), 0);

        let mut warm = TraceCtx::new();
        let (_, source) = engine.fetch_traced(spec, &mut warm).unwrap();
        assert_eq!(source, CacheSource::Memory);
        assert_eq!(warm.stage_ns(Stage::Characterize), 0);

        let m = 8;
        let dist = HdDistribution::from_histogram(&{
            let mut h = vec![0u64; m + 1];
            h[4] = 1;
            h
        });
        let mut est = TraceCtx::new();
        engine
            .estimate_at(spec, &dist, Fidelity::Full, &mut est)
            .unwrap();
        assert!(est.stage_ns(Stage::Estimate) > 0);
    }

    #[test]
    fn coalesced_fetch_times_single_flight_wait() {
        let engine = Arc::new(PowerEngine::new(EngineOptions {
            config: CharacterizationConfig {
                max_patterns: 50_000,
                ..CharacterizationConfig::default()
            },
            ..quick_options()
        }));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 8usize);
        let leader = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.fetch(spec).unwrap().1)
        };
        // Give the leader a head start so our fetch coalesces; if timing
        // still races (leader finished first) the source degrades to a
        // memory hit and the wait assertions are skipped.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut waited = TraceCtx::new();
        let (_, source) = engine.fetch_traced(spec, &mut waited).unwrap();
        leader.join().unwrap();
        if source == CacheSource::Coalesced {
            assert!(waited.stage_ns(Stage::SingleFlightWait) > 0);
            assert_eq!(waited.stage_ns(Stage::Characterize), 0);
        }
    }

    /// Uniform dist over `bits` input bits for ladder tests.
    fn flat_dist(bits: usize) -> HdDistribution {
        HdDistribution::from_bit_activities(&vec![0.5; bits])
    }

    /// Poll until the engine has completed `n` background upgrades.
    fn await_upgrades(engine: &PowerEngine, n: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while engine.stats().upgrades_done < n {
            assert!(
                std::time::Instant::now() < deadline,
                "background upgrade never completed: {:?}",
                engine.stats()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn analytic_floor_answers_instantly_then_upgrades_in_background() {
        let engine = Arc::new(PowerEngine::new(quick_options()));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let dist = flat_dist(8);
        let cold = engine
            .estimate_at(spec, &dist, Fidelity::Analytic, &mut TraceCtx::disabled())
            .unwrap();
        assert_eq!(cold.fidelity, Fidelity::Analytic);
        assert_eq!(cold.source, CacheSource::Analytic);
        assert_eq!(cold.confidence, fidelity::ANALYTIC_CONFIDENCE);
        assert!(cold.charge_per_cycle > 0.0);
        assert_eq!(engine.stats().analytic_served, 1);
        // The background upgrade characterizes exactly once; the repeat
        // request then serves at full fidelity from memory.
        await_upgrades(&engine, 1);
        let warm = engine
            .estimate_at(spec, &dist, Fidelity::Analytic, &mut TraceCtx::disabled())
            .unwrap();
        assert_eq!(warm.fidelity, Fidelity::Full);
        assert_eq!(warm.source, CacheSource::Memory);
        assert_eq!(warm.confidence, 1.0);
        assert_eq!(engine.stats().characterizations, 1);
    }

    #[test]
    fn regressed_floor_serves_from_sibling_fit() {
        let engine = Arc::new(PowerEngine::new(quick_options()));
        for width in [4usize, 6] {
            engine
                .model(ModuleSpec::new(ModuleKind::RippleAdder, width))
                .unwrap();
        }
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 5usize);
        let dist = flat_dist(10);
        let estimate = engine
            .estimate_at(spec, &dist, Fidelity::Regressed, &mut TraceCtx::disabled())
            .unwrap();
        assert_eq!(estimate.fidelity, Fidelity::Regressed);
        assert_eq!(estimate.source, CacheSource::Regressed);
        assert!(
            estimate.confidence > 0.0 && estimate.confidence <= 0.95,
            "{}",
            estimate.confidence
        );
        assert!(estimate.charge_per_cycle > 0.0);
        // Tier B is also the best instant tier under an analytic floor.
        let spec7 = ModuleSpec::new(ModuleKind::RippleAdder, 7usize);
        let best = engine
            .estimate_at(
                spec7,
                &flat_dist(14),
                Fidelity::Analytic,
                &mut TraceCtx::disabled(),
            )
            .unwrap();
        assert_eq!(best.fidelity, Fidelity::Regressed);
        assert_eq!(engine.stats().regressed_served, 2);
        // Neither tier-B answer blocked on a characterization; both
        // enqueued one instead. Once those upgrades drain, exactly the
        // two seeds plus the two upgraded widths have been characterized.
        await_upgrades(&engine, 2);
        assert_eq!(engine.stats().characterizations, 4);
    }

    #[test]
    fn regressed_floor_without_siblings_blocks_to_full() {
        let engine = Arc::new(PowerEngine::new(quick_options()));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let estimate = engine
            .estimate_at(
                spec,
                &flat_dist(8),
                Fidelity::Regressed,
                &mut TraceCtx::disabled(),
            )
            .unwrap();
        assert_eq!(estimate.fidelity, Fidelity::Full);
        assert_eq!(estimate.source, CacheSource::Fresh);
        let stats = engine.stats();
        assert_eq!(stats.characterizations, 1);
        assert_eq!((stats.hits, stats.misses), (0, 1), "one lookup: {stats:?}");
    }

    #[test]
    fn family_fit_refits_when_a_new_sibling_lands() {
        let engine = Arc::new(PowerEngine::new(quick_options()));
        for width in [4usize, 6] {
            engine
                .model(ModuleSpec::new(ModuleKind::RippleAdder, width))
                .unwrap();
        }
        let (first_fit, _) = engine.family_fit(ModuleKind::RippleAdder).unwrap();
        // Memoized: same Arc while no sibling lands.
        let (again, _) = engine.family_fit(ModuleKind::RippleAdder).unwrap();
        assert!(Arc::ptr_eq(&first_fit, &again));
        engine
            .model(ModuleSpec::new(ModuleKind::RippleAdder, 8usize))
            .unwrap();
        let (refit, _) = engine.family_fit(ModuleKind::RippleAdder).unwrap();
        assert!(
            !Arc::ptr_eq(&first_fit, &refit),
            "a new characterized sibling must invalidate the family fit"
        );
        assert_eq!(refit.kind(), ModuleKind::RippleAdder);
    }

    #[test]
    fn upgrade_queue_deduplicates_by_key() {
        let engine = Arc::new(PowerEngine::new(quick_options()));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let dist = flat_dist(8);
        for _ in 0..5 {
            engine
                .estimate_at(spec, &dist, Fidelity::Analytic, &mut TraceCtx::disabled())
                .unwrap();
        }
        await_upgrades(&engine, 1);
        // Five analytic serves, one upgrade, one characterization.
        let stats = engine.stats();
        assert_eq!(stats.characterizations, 1, "{stats:?}");
    }

    #[test]
    fn disk_siblings_feed_the_family_fit() {
        let root = crate::test_support::TempDir::new("engine_fit_disk");
        let options = EngineOptions {
            disk_root: Some(root.path().to_path_buf()),
            ..quick_options()
        };
        {
            let warmup = PowerEngine::new(options.clone());
            for width in [4usize, 6] {
                warmup
                    .model(ModuleSpec::new(ModuleKind::RippleAdder, width))
                    .unwrap();
            }
        }
        // A cold engine (empty memory tier) fits tier B from the disk
        // artifacts alone.
        let engine = Arc::new(PowerEngine::new(options));
        let estimate = engine
            .estimate_at(
                ModuleSpec::new(ModuleKind::RippleAdder, 5usize),
                &flat_dist(10),
                Fidelity::Regressed,
                &mut TraceCtx::disabled(),
            )
            .unwrap();
        assert_eq!(estimate.fidelity, Fidelity::Regressed);
        assert_eq!(engine.stats().characterizations, 0);
    }

    /// The tier-B harvest narrows a shared root to the engine's own
    /// configuration and shard count: siblings stored under another one
    /// never feed its fit.
    #[test]
    fn disk_siblings_of_another_configuration_are_not_fitted() {
        let root = crate::test_support::TempDir::new("engine_fit_mixed");
        let other_config = EngineOptions {
            config: CharacterizationConfig {
                seed: 7,
                ..quick_options().config
            },
            ..disk_options(&root)
        };
        let other_shards = EngineOptions {
            sharding: Some(ShardingConfig {
                shards: 2,
                threads: 1,
            }),
            ..disk_options(&root)
        };
        for options in [&other_config, &other_shards] {
            let warmup = PowerEngine::new(options.clone());
            for width in [4usize, 6] {
                warmup
                    .model(ModuleSpec::new(ModuleKind::RippleAdder, width))
                    .unwrap();
            }
        }
        let regressed = |options: &EngineOptions| {
            let estimate = Arc::new(PowerEngine::new(options.clone()))
                .estimate_at(
                    ModuleSpec::new(ModuleKind::RippleAdder, 5usize),
                    &flat_dist(10),
                    Fidelity::Regressed,
                    &mut TraceCtx::disabled(),
                )
                .unwrap();
            (estimate.fidelity, estimate.source)
        };
        let own = regressed(&disk_options(&root));
        assert_eq!(own, (Fidelity::Full, CacheSource::Fresh), "blocks to full");
        for options in [&other_config, &other_shards] {
            let theirs = regressed(options);
            assert_eq!(theirs, (Fidelity::Regressed, CacheSource::Regressed));
        }
    }

    #[test]
    fn sequential_and_sharded_engines_use_distinct_keys() {
        let sharded = PowerEngine::new(quick_options());
        let sequential = PowerEngine::new(EngineOptions {
            sharding: None,
            ..quick_options()
        });
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        assert_ne!(sharded.key_for(spec), sequential.key_for(spec));
        assert_eq!(sequential.key_for(spec).shards, 0);
    }

    #[test]
    fn zero_shards_engine_runs_the_sequential_stream() {
        // Regression: `Some(shards: 0)` got the sequential key but then
        // panicked in the sharded driver on its first fetch.
        let sequential = PowerEngine::new(EngineOptions {
            sharding: None,
            ..quick_options()
        });
        let zero = PowerEngine::new(EngineOptions {
            sharding: Some(ShardingConfig {
                shards: 0,
                threads: 2,
            }),
            ..quick_options()
        });
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        assert_eq!(zero.key_for(spec), sequential.key_for(spec));
        let (expected, _) = sequential.fetch(spec).unwrap();
        let (got, source) = zero.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh);
        assert_eq!(got, expected);
    }

    /// A remote tier that counts its calls and, while `hold` is set,
    /// parks in them — so a test can line waiters up behind a leader.
    /// With an `origin` store, each call then admits the origin's
    /// artifact, as a peer fetch would.
    #[derive(Clone, Default)]
    struct Remote {
        calls: Arc<AtomicU64>,
        hold: Arc<std::sync::atomic::AtomicBool>,
        threads: Arc<Mutex<Vec<String>>>,
        origin: Option<PathBuf>,
    }

    impl Remote {
        fn holding() -> Remote {
            let remote = Remote::default();
            remote.hold.store(true, Ordering::SeqCst);
            remote
        }

        fn calls(&self) -> u64 {
            self.calls.load(Ordering::SeqCst)
        }

        fn release(&self) {
            self.hold.store(false, Ordering::SeqCst);
        }

        /// Count the call, record its thread, and wait out `hold`.
        fn enter(&self) -> u64 {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.threads.lock().unwrap().push(name);
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            while self.hold.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            call
        }

        /// An engine on `root` whose remote tier does nothing but
        /// [`Remote::enter`] and, with an origin, admit its artifact.
        fn engine(&self, root: &crate::test_support::TempDir) -> Arc<PowerEngine> {
            let remote = self.clone();
            let dest = root.path().to_path_buf();
            Arc::new(
                PowerEngine::new(disk_options(root)).with_remote_tier(move |key| {
                    remote.enter();
                    if let Some(origin) = &remote.origin {
                        let name = key.artifact_file_name();
                        let bytes = std::fs::read(origin.join(&name)).unwrap();
                        let meta = persist::EnvelopeMeta::for_key(key);
                        persist::admit_envelope_bytes::<Characterization>(
                            &bytes,
                            &meta,
                            dest.join(&name),
                        )
                        .unwrap();
                    }
                }),
            )
        }
    }

    /// Concurrent misses on one cold key ask the remote tier once: the
    /// leader asks, every waiter coalesces behind it.
    #[test]
    fn remote_tier_runs_once_per_flight() {
        const CALLERS: u64 = 6;
        let root = crate::test_support::TempDir::new("engine_remote_once");
        let remote = Remote::holding();
        let engine = remote.engine(&root);
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || engine.fetch(spec).unwrap().1)
            })
            .collect();
        await_until("every caller joins the flight", || {
            engine.stats().coalesced == CALLERS - 1
        });
        remote.release();
        let fresh = callers
            .into_iter()
            .map(|c| c.join().unwrap())
            .filter(|source| *source == CacheSource::Fresh)
            .count();
        assert_eq!((remote.calls(), fresh), (1, 1));
        assert_eq!(engine.stats().characterizations, 1);
    }

    /// Memory and disk hits never reach the remote tier.
    #[test]
    fn remote_tier_is_skipped_on_memory_and_disk_hits() {
        let root = crate::test_support::TempDir::new("engine_remote_hits");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let remote = Remote::default();
        let engine = remote.engine(&root);
        assert_eq!(engine.fetch(spec).unwrap().1, CacheSource::Fresh);
        assert_eq!(remote.calls(), 1, "a cold miss asks once");
        assert_eq!(engine.fetch(spec).unwrap().1, CacheSource::Memory);
        engine.wait_all_saved();
        drop(engine);
        let remote = Remote::default();
        let restarted = remote.engine(&root);
        assert_eq!(restarted.fetch(spec).unwrap().1, CacheSource::Disk);
        let estimate = restarted
            .estimate_at(
                spec,
                &flat_dist(8),
                Fidelity::Analytic,
                &mut TraceCtx::disabled(),
            )
            .unwrap();
        assert_eq!(estimate.source, CacheSource::Memory);
        assert_eq!(remote.calls(), 0, "hits never ask");
    }

    /// A remote tier admitting the artifact of `spec` from a store that
    /// characterized it, and the model it admits.
    fn admitting_remote(
        origin: &crate::test_support::TempDir,
        spec: ModuleSpec,
    ) -> (Remote, Arc<Characterization>) {
        let (expected, _) = PowerEngine::new(disk_options(origin)).fetch(spec).unwrap();
        let remote = Remote {
            origin: Some(origin.path().to_path_buf()),
            ..Remote::default()
        };
        (remote, expected)
    }

    /// An artifact the remote tier admits is served as a disk hit: no
    /// characterization, byte-for-byte the admitted model.
    #[test]
    fn remote_tier_admission_serves_as_a_disk_hit() {
        let origin = crate::test_support::TempDir::new("engine_remote_origin");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let (remote, expected) = admitting_remote(&origin, spec);
        let root = crate::test_support::TempDir::new("engine_remote_admit");
        let engine = remote.engine(&root);
        let (served, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(*served, *expected);
        let stats = engine.stats();
        assert_eq!(
            (stats.disk_hits, stats.characterizations),
            (1, 0),
            "{stats:?}"
        );
    }

    /// A torn local artifact is no artifact: it is quarantined and the
    /// remote tier asked, whose admission is served as a disk hit.
    #[test]
    fn torn_artifact_is_quarantined_and_fetched_from_the_remote_tier() {
        let origin = crate::test_support::TempDir::new("engine_torn_origin");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let (remote, expected) = admitting_remote(&origin, spec);
        let root = crate::test_support::TempDir::new("engine_torn");
        let engine = remote.engine(&root);
        std::fs::write(artifact_path(&engine, spec), "{torn").unwrap();
        let (served, source) = engine.fetch(spec).unwrap();
        assert_eq!((source, remote.calls()), (CacheSource::Disk, 1));
        assert_eq!(*served, *expected);
        assert_eq!(engine.stats().characterizations, 0);
        let quarantined = std::fs::read_dir(root.path().join("quarantine")).unwrap();
        assert_eq!(quarantined.count(), 1, "the torn file moved aside");
    }

    /// Whether `root` holds the configuration sidecar of `engine`.
    fn has_sidecar(engine: &PowerEngine, root: &crate::test_support::TempDir) -> bool {
        let key = engine.key_for(ModuleSpec::new(ModuleKind::RippleAdder, 4usize));
        crate::store::sidecar_path(root.path(), key.config_hash).exists()
    }

    /// An artifact admitted from the remote tier gets the configuration
    /// sidecar too, so `fsck --repair` can rebuild it once it is torn.
    #[test]
    fn an_artifact_from_the_remote_tier_can_be_repaired() {
        let origin = crate::test_support::TempDir::new("engine_sidecar_origin");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let (remote, expected) = admitting_remote(&origin, spec);
        let root = crate::test_support::TempDir::new("engine_sidecar");
        let engine = remote.engine(&root);
        assert_eq!(engine.fetch(spec).unwrap().1, CacheSource::Disk);
        let name = engine.key_for(spec).artifact_file_name();
        std::fs::write(root.join(&name), "{torn").unwrap();
        let repair = crate::store::FsckOptions { repair: true };
        let report = crate::store::fsck(root.path(), &repair).unwrap();
        let entry = report.entries.iter().find(|e| e.name == name).unwrap();
        assert_eq!(entry.action, crate::store::RepairAction::Recharacterized);
        let restarted = PowerEngine::new(disk_options(&root));
        let (rebuilt, source) = restarted.fetch(spec).unwrap();
        assert_eq!((source, &*rebuilt), (CacheSource::Disk, &*expected));
    }

    /// An artifact placed in the store before the first fetch, as warm-key
    /// gossip places it, is a disk hit that writes the sidecar.
    #[test]
    fn a_disk_hit_on_a_placed_artifact_writes_the_sidecar() {
        let origin = crate::test_support::TempDir::new("engine_placed_origin");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        PowerEngine::new(disk_options(&origin)).fetch(spec).unwrap();
        let root = crate::test_support::TempDir::new("engine_placed");
        let engine = PowerEngine::new(disk_options(&root));
        let key = engine.key_for(spec);
        let bytes = std::fs::read(origin.join(&key.artifact_file_name())).unwrap();
        let meta = persist::EnvelopeMeta::for_key(&key);
        let dest = root.join(&key.artifact_file_name());
        persist::admit_envelope_bytes::<Characterization>(&bytes, &meta, dest).unwrap();
        assert!(!has_sidecar(&engine, &root), "not written at construction");
        assert_eq!(engine.fetch(spec).unwrap().1, CacheSource::Disk);
        assert!(has_sidecar(&engine, &root));
    }

    /// A sidecar removed while the engine runs, by `fsck --repair` or by
    /// hand, is written again by the next characterization.
    #[test]
    fn a_characterization_rewrites_a_removed_sidecar() {
        let root = crate::test_support::TempDir::new("engine_sidecar_rewrite");
        let engine = PowerEngine::new(disk_options(&root));
        let spec = |width: usize| ModuleSpec::new(ModuleKind::RippleAdder, width);
        assert_eq!(engine.fetch(spec(4)).unwrap().1, CacheSource::Fresh);
        assert!(has_sidecar(&engine, &root));
        std::fs::remove_dir_all(root.join(crate::store::META_DIR)).unwrap();
        assert_eq!(engine.fetch(spec(5)).unwrap().1, CacheSource::Fresh);
        assert!(has_sidecar(&engine, &root), "written again");
    }

    /// The shard count names the artifact and the thread count does not:
    /// another thread count reads it back, and on a fresh store
    /// characterizes the same model. Zero shards is the sequential store.
    #[test]
    fn disk_artifacts_are_keyed_by_shard_count_not_thread_count() {
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let shaped = |root: &crate::test_support::TempDir, shards, threads| {
            PowerEngine::new(EngineOptions {
                sharding: Some(ShardingConfig { shards, threads }),
                ..disk_options(root)
            })
        };
        let root = crate::test_support::TempDir::new("engine_sh4");
        let two_threads = shaped(&root, 4, 2);
        let (first, source) = two_threads.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh);
        drop(two_threads);
        assert!(artifact_path(&shaped(&root, 4, 1), spec).ends_with(format!(
            "ripple_adder_4_cfg{:016x}_sh4.json",
            config_fingerprint(&quick_options().config)
        )));
        let (read, source) = shaped(&root, 4, 1).fetch(spec).unwrap();
        assert_eq!((source, &read), (CacheSource::Disk, &first));
        let other = crate::test_support::TempDir::new("engine_sh4_st");
        assert_eq!(
            shaped(&other, 4, 1).fetch(spec).unwrap().0.model,
            first.model
        );

        let root = crate::test_support::TempDir::new("engine_sh0");
        let (written, source) = shaped(&root, 0, 2).fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh);
        let sequential = PowerEngine::new(EngineOptions {
            sharding: None,
            ..disk_options(&root)
        });
        let (read, source) = sequential.fetch(spec).unwrap();
        assert_eq!((source, read), (CacheSource::Disk, written));
    }

    /// A below-full estimate answers at once; only its background
    /// upgrade asks the remote tier.
    #[test]
    fn below_full_estimates_ask_the_remote_tier_only_from_the_upgrade() {
        let root = crate::test_support::TempDir::new("engine_remote_upgrade");
        let remote = Remote::default();
        let engine = remote.engine(&root);
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let estimate = engine
            .estimate_at(
                spec,
                &flat_dist(8),
                Fidelity::Analytic,
                &mut TraceCtx::disabled(),
            )
            .unwrap();
        assert_eq!(estimate.source, CacheSource::Analytic);
        await_upgrades(&engine, 1);
        assert_eq!(*remote.threads.lock().unwrap(), ["hdpm-upgrade"]);
        assert_eq!(engine.stats().characterizations, 1);
    }

    /// A remote tier that panics fails the flight's waiters and frees
    /// the key: the next request leads afresh.
    #[test]
    fn panicking_remote_tier_fails_waiters_and_frees_the_key() {
        let root = crate::test_support::TempDir::new("engine_remote_panic");
        let remote = Remote::holding();
        let engine = {
            let remote = remote.clone();
            Arc::new(
                PowerEngine::new(disk_options(&root)).with_remote_tier(move |_| {
                    if remote.enter() == 0 {
                        panic!("remote tier failed");
                    }
                }),
            )
        };
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let leader = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.fetch(spec))
        };
        await_until("the leader asks the remote tier", || remote.calls() == 1);
        let waiter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.fetch(spec))
        };
        await_until("the waiter coalesces", || engine.stats().coalesced == 1);
        remote.release();
        assert!(leader.join().is_err(), "the leader unwinds");
        assert!(matches!(
            waiter.join().unwrap(),
            Err(ModelError::SingleFlight { .. })
        ));
        assert_eq!(engine.stats().inflight, 0, "the key is unregistered");
        assert_eq!(engine.fetch(spec).unwrap().1, CacheSource::Fresh);
        assert_eq!(remote.calls(), 2, "the next leader asks again");
    }

    /// A panicking upgrade leaves the upgrade thread running: its key
    /// leaves the pending set, and the next spec is still upgraded.
    #[test]
    fn a_panicking_upgrade_does_not_stop_later_upgrades() {
        let root = crate::test_support::TempDir::new("engine_upgrade_panic");
        let remote = Remote::default();
        let engine = {
            let remote = remote.clone();
            Arc::new(
                PowerEngine::new(disk_options(&root)).with_remote_tier(move |_| {
                    if remote.enter() == 0 {
                        panic!("remote tier failed");
                    }
                }),
            )
        };
        let specs = [4usize, 5].map(|w| ModuleSpec::new(ModuleKind::RippleAdder, w));
        for (spec, bits) in specs.into_iter().zip([8, 10]) {
            let estimate = engine
                .estimate_at(
                    spec,
                    &flat_dist(bits),
                    Fidelity::Analytic,
                    &mut TraceCtx::disabled(),
                )
                .unwrap();
            assert_eq!(estimate.source, CacheSource::Analytic);
        }
        await_until("every upgrade settles", || engine.pending_upgrades() == 0);
        assert_eq!(engine.fetch(specs[1]).unwrap().1, CacheSource::Memory);
        assert_eq!(engine.stats().upgrades_done, 2);
    }

    #[test]
    fn dropped_leader_fails_waiters_and_frees_the_key() {
        let engine = Arc::new(PowerEngine::new(quick_options()));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let key = engine.key_for(spec);
        // Register a leader by hand, as fetch_traced does, and let it
        // unwind without publishing.
        let flight = Arc::new(Flight::new());
        engine
            .inner
            .lock()
            .unwrap()
            .inflight
            .insert(key, Arc::clone(&flight));
        let leader = LeaderGuard {
            inner: &engine.inner,
            key,
            flight,
            published: false,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || tx.send(engine.fetch(spec)).unwrap());
        }
        // The waiter holds the flight once it has counted itself
        // coalesced.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while engine.stats().coalesced == 0 {
            assert!(std::time::Instant::now() < deadline, "waiter never joined");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(leader);
        let waited = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the waiter is released, not wedged");
        assert!(matches!(waited, Err(ModelError::SingleFlight { .. })));
        assert_eq!(engine.stats().inflight, 0, "the key is unregistered");
        let (_, source) = engine.fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh, "the next fetch leads afresh");
    }
}
