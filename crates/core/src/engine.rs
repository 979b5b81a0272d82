//! `PowerEngine` — the long-lived, thread-safe estimation facade.
//!
//! The engine owns a two-tier content-addressed model store:
//!
//! 1. an in-memory LRU ([`crate::cache::LruCache`]) of characterizations,
//!    keyed by [`ModelKey`] = (module spec, configuration hash, shard
//!    count), capacity-bounded with hit/miss/eviction counters;
//! 2. the on-disk [`ModelLibrary`] (optional), so characterizations
//!    survive the process and warm the next one.
//!
//! Cache misses characterize on demand with **single-flight
//! deduplication**: concurrent requests for the same key block on one
//! characterization instead of racing N gate-level runs. The leader
//! publishes its result (or failure) through a condvar-guarded flight
//! slot; waiters receive the shared `Arc` with no recomputation.
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, Weak};

use hdpm_datamodel::HdDistribution;
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_telemetry as telemetry;
use hdpm_telemetry::{Stage, TraceCtx};
use serde::Serialize;

use crate::cache::{config_fingerprint, LruCache, ModelKey};
use crate::characterize::{characterize_sharded, Characterization, CharacterizationConfig};
use crate::error::ModelError;
use crate::fidelity::{self, Fidelity};
use crate::library::{CorruptArtifactPolicy, LibrarySource, ModelLibrary};
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
    /// Background fidelity upgrades completed (each one characterizes —
    /// or, under a server upgrade hook, cluster-fetches — one spec that
    /// was served below full fidelity).
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

impl Estimate {
    /// The full-fidelity answer from a characterization already in the
    /// memory tier, as [`PowerEngine::estimate_at`] gives at any floor
    /// on a memory hit. For callers that took the model with
    /// [`PowerEngine::resident`] and must not look it up again.
    ///
    /// # Errors
    ///
    /// [`ModelError::WidthMismatch`] if the distribution width differs
    /// from the model's input width.
    pub fn resident(
        characterization: &Characterization,
        dist: &HdDistribution,
    ) -> Result<Estimate, ModelError> {
        let tier = (CacheSource::Memory, Fidelity::Full, 1.0);
        model_estimate(&characterization.model, dist, tier)
    }
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
    /// as most recently used and counted as a hit. A miss counts as one
    /// in the cache's own tally.
    fn hit(&mut self, key: &ModelKey) -> Option<Arc<Characterization>> {
        let cached = self.cache.get(key).map(Arc::clone);
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

/// What the upgrade worker runs per spec instead of the default local
/// `fetch` — the server installs one that routes through cluster
/// ownership first.
type UpgradeHook = Arc<dyn Fn(&PowerEngine, ModuleSpec) + Send + Sync>;

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
    upgrade_hook: RwLock<Option<UpgradeHook>>,
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
    /// Build an engine from options. When `disk_root` is set, the on-disk
    /// tier is a [`ModelLibrary`] keyed identically (configuration and
    /// shard count in the artifact names).
    pub fn new(options: EngineOptions) -> Self {
        let sharding = options.sharding.unwrap_or(ShardingConfig::SEQUENTIAL);
        let library = options.disk_root.as_ref().map(|root| {
            // Serving must survive a dirty store: corrupt artifacts
            // are quarantined and re-characterized, never fatal.
            ModelLibrary::with_sharding(root.clone(), options.config, sharding)
                .with_corrupt_policy(CorruptArtifactPolicy::Quarantine)
        });
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
            upgrade_hook: RwLock::new(None),
        }
    }

    /// An engine with [`EngineOptions::default`].
    pub fn with_defaults() -> Self {
        PowerEngine::new(EngineOptions::default())
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
    /// [`ModelError::Artifact`] for corrupt disk artifacts, and
    /// [`ModelError::SingleFlight`] when a coalesced request's leader
    /// failed (the leader receives the original error). Failures are not
    /// cached: a later request retries.
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
    /// including disk-tier loads, which are attributed here because the
    /// artifact read replaces the characterization work.
    ///
    /// # Errors
    ///
    /// As for [`PowerEngine::fetch`].
    pub fn fetch_traced(
        &self,
        spec: ModuleSpec,
        trace: &mut TraceCtx,
    ) -> Result<(Arc<Characterization>, CacheSource), ModelError> {
        let key = self.key_for(spec);
        enum Role {
            Hit(Arc<Characterization>),
            Waiter(Arc<Flight>),
            Leader(Arc<Flight>),
        }
        let role = trace.time(Stage::CacheLookup, || {
            let mut inner = self.inner.lock().expect("engine lock");
            if let Some(cached) = inner.hit(&key) {
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
                let outcome = trace.time(Stage::Characterize, || self.load_or_characterize(spec));
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
            let mut inner = self.inner.lock().expect("engine lock");
            inner.cache.peek(&key)?;
            inner.hit(&key)
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

    /// Resolve a miss below the memory tier: disk artifact if present,
    /// fresh characterization otherwise (stored to disk when the engine
    /// has a library tier).
    fn load_or_characterize(
        &self,
        spec: ModuleSpec,
    ) -> Result<(Arc<Characterization>, CacheSource), ModelError> {
        if let Some(library) = &self.library {
            // get_traced reports which store path actually served the
            // request, so attribution cannot race a concurrent writer the
            // way a separate contains()-then-get() check could.
            let (result, source) = library.get_traced(spec)?;
            return match source {
                LibrarySource::DiskValid => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter_add("engine.disk.hit", 1);
                    Ok((Arc::new(result), CacheSource::Disk))
                }
                LibrarySource::Characterized | LibrarySource::Recovered => {
                    self.characterizations.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter_add("engine.characterize", 1);
                    Ok((Arc::new(result), CacheSource::Fresh))
                }
            };
        }
        let netlist = spec.build()?.validate()?;
        let result = characterize_sharded(&netlist, &self.options.config, &self.sharding)?;
        self.characterizations.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("engine.characterize", 1);
        Ok((Arc::new(result), CacheSource::Fresh))
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
    ///   on a characterization (`floor == Full` always does; `floor ==
    ///   Regressed` does when the family has too few siblings).
    ///
    /// After any below-full answer the spec is queued for a **background
    /// upgrade** (bounded, deduplicated by cache key): a worker thread
    /// characterizes it — or runs the server-installed
    /// [`PowerEngine::set_upgrade_hook`] — so the next request for the
    /// same key answers at full fidelity. Requires `Arc<Self>` because
    /// the worker holds a weak reference to the engine.
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
        // and still instant (memory lookup / one artifact read).
        let key = self.key_for(spec);
        let cached = trace.time(Stage::CacheLookup, || {
            self.inner.lock().expect("engine lock").hit(&key)
        });
        if let Some(c) = cached {
            return trace.time(Stage::Estimate, || Estimate::resident(&c, dist));
        }
        if self.library.as_ref().is_some_and(|l| l.contains(spec)) {
            return self.estimate_full(spec, dist, trace);
        }
        // Tier B: regression over characterized siblings, if the family
        // has enough of them.
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
            let estimate = trace.time(Stage::Estimate, || model_estimate(&model, dist, tier))?;
            self.analytic_served.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("engine.fidelity.analytic", 1);
            self.enqueue_upgrade(spec);
            return Ok(estimate);
        }
        // floor == Regressed with no family fit: the floor cannot be met
        // instantly, so pay the full characterization.
        self.estimate_full(spec, dist, trace)
    }

    /// The full-fidelity path: fetch (or characterize) the model, then
    /// estimate.
    fn estimate_full(
        &self,
        spec: ModuleSpec,
        dist: &HdDistribution,
        trace: &mut TraceCtx,
    ) -> Result<Estimate, ModelError> {
        let (characterization, source) = self.fetch_traced(spec, trace)?;
        trace.time(Stage::Estimate, || {
            model_estimate(&characterization.model, dist, (source, Fidelity::Full, 1.0))
        })
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
            for spec in library.stored_specs() {
                if spec.kind != kind || prototypes.iter().any(|p| p.spec == spec) {
                    continue;
                }
                if let Some(c) = library.load_if_present(spec) {
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

    /// Install the action the background upgrade worker runs per spec in
    /// place of the default local [`PowerEngine::fetch`]. The server uses
    /// this to route upgrades through cluster ownership (peer fetch /
    /// forward to owner) before characterizing locally.
    pub fn set_upgrade_hook<F>(&self, hook: F)
    where
        F: Fn(&PowerEngine, ModuleSpec) + Send + Sync + 'static,
    {
        *self.upgrade_hook.write().expect("upgrade hook lock") = Some(Arc::new(hook));
    }

    /// Upgrade requests queued or running right now — a test/ops hook,
    /// racy by nature.
    pub fn pending_upgrades(&self) -> usize {
        self.upgrade
            .state
            .lock()
            .expect("upgrade lock")
            .pending
            .len()
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

    /// One background upgrade: the installed hook, or a plain local
    /// fetch (which characterizes, caches and — with a disk tier —
    /// persists the spec).
    fn run_upgrade(&self, spec: ModuleSpec) {
        let hook = self.upgrade_hook.read().expect("upgrade hook lock").clone();
        match hook {
            Some(hook) => hook(self, spec),
            None => {
                if let Err(e) = self.fetch(spec) {
                    telemetry::event(
                        telemetry::Level::Warn,
                        "engine.upgrade.failed",
                        &[
                            ("spec", spec.to_string().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                }
            }
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
            .is_some_and(|library| library.contains(spec))
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
    /// Stop the background upgrade worker. Joins unless the engine is
    /// being dropped *on* the worker thread (the worker held the last
    /// `Arc`), where a self-join would deadlock — the thread just
    /// detaches and exits on the shutdown flag it already observed.
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
    }
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

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(engine.stats().characterizations, 1);
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
