//! Model characterization (§4.1).
//!
//! Module prototypes are stimulated with random patterns; the reference
//! simulator reports the charge of every transition; coefficients are the
//! per-class averages of eq. 4, with the per-class average absolute
//! deviation `ε_i` of eq. 5. Characterization stops early once the
//! coefficients have converged.
//!
//! One driver, [`characterize_with_backend`], runs every characterization.
//! Its [`ShardingConfig`] describes the run's shape:
//!
//! * `shards: 0` — the sequential reference stream ([`characterize`]):
//!   one pattern stream seeded by `config.seed`, convergence-checked
//!   every `check_interval` patterns, stopping early once converged;
//! * `shards: S ≥ 1` — the pattern budget split into `S` deterministic
//!   shards with RNG streams derived by [`crate::shard_seed`], simulated
//!   on scoped worker threads and merged in ascending shard index,
//!   checkpointed at shard boundaries and never stopping early
//!   ([`characterize_sharded`]). The coefficient tables are bit-identical
//!   for every thread count (see `docs/parallelism.md`).
//!
//! Both shapes run on either reference-simulator backend (see
//! [`SimBackend`] and `docs/simulation.md`): the event-driven oracle or
//! the bit-parallel engine, which packs 64 transitions of the stimulus
//! stream into one block and is **bit-identical** to the oracle — the
//! backend choice never changes a bit of any coefficient table, which is
//! why it is *not* part of [`CharacterizationConfig`] (and therefore not
//! part of the persisted-model cache identity).

use hdpm_netlist::ValidatedNetlist;
use hdpm_sim::{BitPattern, BitplaneSimulator, DelayModel, SimBackend, Simulator, BLOCK_LANES};
use hdpm_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use telemetry::Level;

use crate::error::ModelError;
use crate::model::{EnhancedHdModel, HdModel, ZeroClustering};
use crate::shard::{
    parallel_map_ordered, shard_budgets, shard_seed, ClassAccumulator, ShardingConfig,
};

/// The statistics of the characterization pattern stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StimulusKind {
    /// Uniform random patterns — the paper's §4.1 stimulus (every bit is
    /// an independent fair coin).
    #[default]
    UniformRandom,
    /// Stratified stimulus: the per-bit one-probability cycles through a
    /// sweep of values, so that zero-rich and one-rich transitions are
    /// well represented. Recommended when the *enhanced* model's
    /// stable-zero subgroups must be populated (uniform random patterns
    /// almost never produce transitions where most stable bits are zero).
    SignalProbSweep,
    /// Hd-stratified stimulus: every transition flips a uniformly chosen
    /// number of uniformly chosen bits of the previous pattern. The
    /// conditional law of a transition given its class `E_i` is identical
    /// to uniform random patterns (uniform state, uniform `i`-subset of
    /// flipped positions), but every class receives `≈ n/(m+1)` samples
    /// instead of the binomial tail starving `p_1` and `p_m` — importance
    /// sampling over the event classes of eq. 4.
    UniformHd,
}

/// Configuration of a characterization run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationConfig {
    /// Maximum number of random characterization patterns.
    pub max_patterns: usize,
    /// Statistics of the characterization stream.
    pub stimulus: StimulusKind,
    /// RNG seed for the pattern stream.
    pub seed: u64,
    /// Reference-simulator timing discipline.
    pub delay_model: DelayModel,
    /// Convergence tolerance: characterization stops when no populated
    /// class coefficient moved by more than this relative amount between
    /// checkpoints.
    pub convergence_tol: f64,
    /// Patterns between convergence checkpoints.
    pub check_interval: usize,
    /// Minimum samples a class needs before it participates in the
    /// convergence check.
    pub min_class_samples: u64,
    /// Subgroup layout of the enhanced model.
    pub clustering: ZeroClustering,
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        CharacterizationConfig {
            max_patterns: 12_000,
            stimulus: StimulusKind::UniformRandom,
            seed: 0xC0FFEE,
            delay_model: DelayModel::Unit,
            convergence_tol: 0.02,
            check_interval: 2_000,
            min_class_samples: 8,
            clustering: ZeroClustering::Full,
        }
    }
}

impl CharacterizationConfig {
    /// A fluent, validating builder starting from the defaults.
    /// Struct-literal construction keeps working; the builder adds range
    /// checks at [`CharacterizationConfigBuilder::build`] time.
    ///
    /// ```
    /// use hdpm_core::{CharacterizationConfig, StimulusKind};
    ///
    /// let config = CharacterizationConfig::builder()
    ///     .max_patterns(4_000)
    ///     .stimulus(StimulusKind::SignalProbSweep)
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.max_patterns, 4_000);
    /// assert!(CharacterizationConfig::builder()
    ///     .max_patterns(0)
    ///     .build()
    ///     .is_err());
    /// ```
    pub fn builder() -> CharacterizationConfigBuilder {
        CharacterizationConfigBuilder {
            config: CharacterizationConfig::default(),
        }
    }
}

/// Fluent builder of [`CharacterizationConfig`], created by
/// [`CharacterizationConfig::builder`]. Setters override one field each;
/// [`CharacterizationConfigBuilder::build`] validates ranges and returns
/// [`ModelError::InvalidConfig`] naming the first offending field.
#[derive(Debug, Clone, Copy)]
pub struct CharacterizationConfigBuilder {
    config: CharacterizationConfig,
}

impl CharacterizationConfigBuilder {
    /// Maximum number of random characterization patterns (≥ 2).
    #[must_use]
    pub fn max_patterns(mut self, max_patterns: usize) -> Self {
        self.config.max_patterns = max_patterns;
        self
    }

    /// Statistics of the characterization stream.
    #[must_use]
    pub fn stimulus(mut self, stimulus: StimulusKind) -> Self {
        self.config.stimulus = stimulus;
        self
    }

    /// RNG seed for the pattern stream.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Reference-simulator timing discipline.
    #[must_use]
    pub fn delay_model(mut self, delay_model: DelayModel) -> Self {
        self.config.delay_model = delay_model;
        self
    }

    /// Convergence tolerance (finite, ≥ 0).
    #[must_use]
    pub fn convergence_tol(mut self, convergence_tol: f64) -> Self {
        self.config.convergence_tol = convergence_tol;
        self
    }

    /// Patterns between convergence checkpoints (> 0).
    #[must_use]
    pub fn check_interval(mut self, check_interval: usize) -> Self {
        self.config.check_interval = check_interval;
        self
    }

    /// Minimum samples a class needs before it participates in the
    /// convergence check (≥ 1).
    #[must_use]
    pub fn min_class_samples(mut self, min_class_samples: u64) -> Self {
        self.config.min_class_samples = min_class_samples;
        self
    }

    /// Subgroup layout of the enhanced model (`Clustered(k)` needs k ≥ 1).
    #[must_use]
    pub fn clustering(mut self, clustering: ZeroClustering) -> Self {
        self.config.clustering = clustering;
        self
    }

    /// Validate the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if any field is out of range:
    /// `max_patterns < 2`, `check_interval == 0`, a non-finite or negative
    /// `convergence_tol`, `min_class_samples == 0`, or
    /// `ZeroClustering::Clustered(0)`.
    pub fn build(self) -> Result<CharacterizationConfig, ModelError> {
        let c = self.config;
        if c.max_patterns < 2 {
            return Err(ModelError::InvalidConfig {
                field: "max_patterns",
                value: c.max_patterns.to_string(),
                constraint: "must be at least 2",
            });
        }
        if c.check_interval == 0 {
            return Err(ModelError::InvalidConfig {
                field: "check_interval",
                value: c.check_interval.to_string(),
                constraint: "must be positive",
            });
        }
        if !c.convergence_tol.is_finite() || c.convergence_tol < 0.0 {
            return Err(ModelError::InvalidConfig {
                field: "convergence_tol",
                value: c.convergence_tol.to_string(),
                constraint: "must be finite and non-negative",
            });
        }
        if c.min_class_samples == 0 {
            return Err(ModelError::InvalidConfig {
                field: "min_class_samples",
                value: c.min_class_samples.to_string(),
                constraint: "must be at least 1",
            });
        }
        if let ZeroClustering::Clustered(0) = c.clustering {
            return Err(ModelError::InvalidConfig {
                field: "clustering",
                value: "Clustered(0)".to_string(),
                constraint: "cluster size must be at least 1",
            });
        }
        Ok(c)
    }
}

/// One convergence checkpoint: patterns seen so far and the largest
/// relative coefficient change since the previous checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Patterns applied up to this checkpoint.
    pub patterns: usize,
    /// Maximum relative coefficient change across populated classes.
    pub max_relative_change: f64,
}

/// The result of characterizing one module prototype.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// The basic Hd model (eq. 2).
    pub model: HdModel,
    /// The enhanced Hd model (eq. 3).
    pub enhanced: EnhancedHdModel,
    /// Number of transitions actually used.
    pub transitions: usize,
    /// Pattern count after which the convergence criterion held, if it did
    /// before `max_patterns` ran out.
    pub converged_after: Option<usize>,
    /// Convergence history (for the convergence-ablation bench).
    pub history: Vec<ConvergencePoint>,
}

/// Signal-probability levels of the stratified stimulus; each level holds
/// for a block of patterns so transitions within a block carry the
/// level's statistics.
const SWEEP_LEVELS: [f64; 7] = [0.5, 0.15, 0.85, 0.3, 0.7, 0.05, 0.95];
const SWEEP_BLOCK: usize = 200;

/// One deterministic characterization pattern stream: an RNG, the
/// stimulus law and the previous pattern. A sequential run owns one
/// stream seeded by the configuration seed; every shard of a sharded run
/// owns an independent stream seeded via [`shard_seed`].
struct StimulusStream {
    rng: StdRng,
    stimulus: StimulusKind,
    m: usize,
    prev: Option<BitPattern>,
    /// Scratch index pool for the Hd-stratified subset draw.
    positions: Vec<usize>,
    generated: usize,
}

impl StimulusStream {
    fn new(m: usize, stimulus: StimulusKind, seed: u64) -> Self {
        StimulusStream {
            rng: StdRng::seed_from_u64(seed),
            stimulus,
            m,
            prev: None,
            positions: (0..m).collect(),
            generated: 0,
        }
    }

    /// Generate the next pattern and, unless it is the stream's first, the
    /// `(hd, stable_zeros)` classification of the transition into it.
    fn next_pattern(&mut self) -> (BitPattern, Option<(usize, usize)>) {
        let m = self.m;
        let pattern = match (self.stimulus, self.prev) {
            (StimulusKind::UniformRandom, _) | (_, None) => {
                BitPattern::from_masked(self.rng.gen::<u64>(), m)
            }
            (StimulusKind::SignalProbSweep, _) => {
                let level = SWEEP_LEVELS[(self.generated / SWEEP_BLOCK) % SWEEP_LEVELS.len()];
                let mut bits = 0u64;
                for i in 0..m {
                    if self.rng.gen_bool(level) {
                        bits |= 1 << i;
                    }
                }
                BitPattern::new(bits, m)
            }
            (StimulusKind::UniformHd, Some(prev)) => {
                let k = self.rng.gen_range(0..=m);
                // Partial Fisher-Yates: the first k entries become a
                // uniform k-subset of bit positions.
                for i in 0..k {
                    let j = self.rng.gen_range(i..m);
                    self.positions.swap(i, j);
                }
                let mut bits = prev.bits();
                for &pos in &self.positions[..k] {
                    bits ^= 1 << pos;
                }
                BitPattern::new(bits, m)
            }
        };
        let transition = self
            .prev
            .map(|prev| (prev.hamming_distance(pattern), prev.stable_zeros(pattern)));
        self.prev = Some(pattern);
        self.generated += 1;
        (pattern, transition)
    }
}

/// Drive `budget` patterns from `stream` through the selected simulator
/// backend, invoking `observe(transition, charge)` once per pattern in
/// stream order; stops early when `observe` returns `true`.
///
/// The bit-parallel engine packs transitions 64 at a time, but because it
/// is bit-identical to the oracle *per transition* (see
/// [`BitplaneSimulator`]), `observe` sees exactly the same
/// `(transition, charge)` sequence either way — including when a
/// convergence checkpoint stops the run mid-block (the remaining lanes of
/// the block are simply discarded). Netlists with registers are outside
/// the bit-plane engine's lane-parallel model, so they silently fall back
/// to the event-driven oracle.
fn drive_stream(
    netlist: &ValidatedNetlist,
    config: &CharacterizationConfig,
    backend: SimBackend,
    stream: &mut StimulusStream,
    budget: usize,
    mut observe: impl FnMut(Option<(usize, usize)>, f64) -> bool,
) {
    let use_bitplane = backend == SimBackend::Bitplane && BitplaneSimulator::supports(netlist);
    if use_bitplane {
        let mut sim = BitplaneSimulator::new(netlist, config.delay_model);
        let mut patterns = Vec::with_capacity(BLOCK_LANES + 1);
        let mut transitions = Vec::with_capacity(BLOCK_LANES + 1);
        let mut applied = 0usize;
        'blocks: while applied < budget {
            // The first block carries one extra pattern: it initializes
            // the simulator state and yields no transition result.
            let cap = if applied == 0 {
                BLOCK_LANES + 1
            } else {
                BLOCK_LANES
            };
            let take = (budget - applied).min(cap);
            patterns.clear();
            transitions.clear();
            for _ in 0..take {
                let (pattern, transition) = stream.next_pattern();
                patterns.push(pattern);
                transitions.push(transition);
            }
            let results = sim.apply_block(&patterns);
            let offset = patterns.len() - results.len();
            for (i, &transition) in transitions.iter().enumerate() {
                let charge = if i < offset {
                    0.0
                } else {
                    results[i - offset].charge
                };
                applied += 1;
                if observe(transition, charge) {
                    break 'blocks;
                }
            }
        }
        sim.flush_telemetry();
    } else {
        let mut sim = Simulator::with_delay_model(netlist, config.delay_model);
        let mut applied = 0usize;
        while applied < budget {
            let (pattern, transition) = stream.next_pattern();
            let result = sim.apply(pattern);
            applied += 1;
            if observe(transition, result.charge) {
                break;
            }
        }
        sim.flush_telemetry();
    }
}

/// Coefficient snapshot for the convergence check: classes under
/// `min_samples` are NaN so they never participate in the diff.
fn convergence_snapshot(acc: &ClassAccumulator, min_samples: u64) -> Vec<f64> {
    acc.counts()
        .iter()
        .zip(acc.charge_sums())
        .map(|(&c, &s)| {
            if c >= min_samples {
                s / c as f64
            } else {
                f64::NAN
            }
        })
        .collect()
}

/// Largest relative coefficient move between two snapshots, ignoring
/// classes that are unpopulated (NaN) on either side.
fn max_relative_change(new: &[f64], old: &[f64]) -> f64 {
    let mut max_change: f64 = 0.0;
    for (new, old) in new.iter().zip(old) {
        if new.is_nan() || old.is_nan() || *old == 0.0 {
            continue;
        }
        max_change = max_change.max(((new - old) / old).abs());
    }
    max_change
}

/// Convergence bookkeeping of one run: the last coefficient snapshot, the
/// trajectory, and the first checkpoint that met the tolerance.
#[derive(Default)]
struct Checkpoints {
    last: Option<Vec<f64>>,
    history: Vec<ConvergencePoint>,
    converged_after: Option<usize>,
}

impl Checkpoints {
    /// Checkpoint `acc` after `patterns` patterns. Returns `true` when this
    /// is the first checkpoint whose largest relative coefficient move is
    /// under `config.convergence_tol`.
    fn check(
        &mut self,
        config: &CharacterizationConfig,
        acc: &ClassAccumulator,
        patterns: usize,
    ) -> bool {
        let snapshot = convergence_snapshot(acc, config.min_class_samples);
        let change = self
            .last
            .as_ref()
            .map(|last| max_relative_change(&snapshot, last));
        self.last = Some(snapshot);
        let mut fields = vec![("patterns", patterns.into())];
        if let Some(max_change) = change {
            self.history.push(ConvergencePoint {
                patterns,
                max_relative_change: max_change,
            });
            fields.push(("max_relative_change", max_change.into()));
        }
        // The first checkpoint is the baseline: no snapshot to diff against.
        fields.push(("baseline", change.is_none().into()));
        telemetry::event(Level::Info, "characterize.checkpoint", &fields);
        let converged = self.converged_after.is_none()
            && change.is_some_and(|max_change| max_change < config.convergence_tol);
        if converged {
            self.converged_after = Some(patterns);
        }
        converged
    }
}

/// Characterize a module prototype with random patterns (§4.1): the
/// sequential reference stream (`shards: 0`, see [`characterize_sharded`]
/// for the other shapes).
///
/// # Errors
///
/// Returns [`ModelError::EmptyCharacterization`] when the pattern budget
/// produced no transition in any Hd class (every eq. 4 average would be
/// the undefined `0/0`).
///
/// # Examples
///
/// ```
/// use hdpm_core::{characterize, CharacterizationConfig};
/// use hdpm_netlist::modules;
///
/// # fn main() -> Result<(), hdpm_core::ModelError> {
/// let adder = modules::ripple_adder(4)?.validate()?;
/// let config = CharacterizationConfig {
///     max_patterns: 2000,
///     ..CharacterizationConfig::default()
/// };
/// let result = characterize(&adder, &config)?;
/// // Coefficients grow with the Hamming distance.
/// assert!(result.model.coefficient(8) > result.model.coefficient(2));
/// # Ok(())
/// # }
/// ```
pub fn characterize(
    netlist: &ValidatedNetlist,
    config: &CharacterizationConfig,
) -> Result<Characterization, ModelError> {
    characterize_sharded(netlist, config, &ShardingConfig::SEQUENTIAL)
}

/// Characterize a module prototype in the run shape `sharding` describes,
/// on the [`SimBackend::resolve`]d default backend. `shards: 0` is the
/// sequential stream of [`characterize`].
///
/// With `shards: S ≥ 1`, every shard owns an RNG stream seeded by
/// [`shard_seed`]`(config.seed, shard_index)` and its own previous
/// pattern, and shards merge in **ascending shard index**, so the
/// coefficient tables (`p_i`, `ε_i`) are bit-identical for every
/// `sharding.threads` value, including 1. The shard *count* selects the
/// pattern streams and so is part of the result's identity. Shards never
/// stop early (their convergence trajectory is advisory), and a shard's
/// first pattern only initializes its simulator, so a run observes
/// `max_patterns − S` transitions when all budgets are non-zero.
///
/// # Errors
///
/// Returns [`ModelError::EmptyCharacterization`] when no stream produced
/// a transition in any Hd class.
///
/// # Examples
///
/// ```
/// use hdpm_core::{characterize, characterize_sharded, CharacterizationConfig, ShardingConfig};
/// use hdpm_netlist::modules;
///
/// # fn main() -> Result<(), hdpm_core::ModelError> {
/// let adder = modules::ripple_adder(4)?.validate()?;
/// let config = CharacterizationConfig {
///     max_patterns: 2000,
///     ..CharacterizationConfig::default()
/// };
/// let sharding = ShardingConfig { shards: 4, threads: 0 };
/// let parallel = characterize_sharded(&adder, &config, &sharding)?;
/// let single = characterize_sharded(
///     &adder,
///     &config,
///     &ShardingConfig { threads: 1, ..sharding },
/// )?;
/// // Thread count never changes a bit of the coefficient tables.
/// assert_eq!(parallel.model, single.model);
/// // `shards: 0` is the sequential stream.
/// let sequential = characterize_sharded(&adder, &config, &ShardingConfig::SEQUENTIAL)?;
/// assert_eq!(sequential, characterize(&adder, &config)?);
/// # Ok(())
/// # }
/// ```
pub fn characterize_sharded(
    netlist: &ValidatedNetlist,
    config: &CharacterizationConfig,
    sharding: &ShardingConfig,
) -> Result<Characterization, ModelError> {
    characterize_with_backend(netlist, config, sharding, SimBackend::resolve(None))
}

/// [`characterize_sharded`] with an explicit simulator backend instead of
/// the [`SimBackend::resolve`]d default. The backend never changes a bit
/// of the result (that contract is enforced by `tests/sim_conformance.rs`);
/// passing [`SimBackend::Event`] forces the slower oracle, which is what
/// the differential harness and `--sim-backend event` do. Lane packing
/// composes with the per-shard RNG streams: each stream is packed into
/// 64-lane blocks of its *own*, so bit-plane runs stay bit-identical to
/// the oracle in either shape and at every thread count.
///
/// # Errors
///
/// As for [`characterize_sharded`].
pub fn characterize_with_backend(
    netlist: &ValidatedNetlist,
    config: &CharacterizationConfig,
    sharding: &ShardingConfig,
    backend: SimBackend,
) -> Result<Characterization, ModelError> {
    let m = netlist.netlist().input_bit_count();
    let sequential = sharding.shards == 0;
    // (seed, budget) of every pattern stream, in merge order.
    let streams: Vec<(u64, usize)> = if sequential {
        vec![(config.seed, config.max_patterns)]
    } else {
        shard_budgets(config.max_patterns, sharding.shards)
            .into_iter()
            .enumerate()
            .map(|(index, budget)| (shard_seed(config.seed, index as u64), budget))
            .collect()
    };
    let threads = sharding.effective_threads();

    let _span = telemetry::span("characterize");
    telemetry::event(
        Level::Info,
        "characterize.start",
        &[
            ("module", netlist.netlist().name().into()),
            ("input_bits", m.into()),
            ("stimulus", format!("{:?}", config.stimulus).into()),
            ("max_patterns", config.max_patterns.into()),
            ("seed", config.seed.into()),
            ("shards", sharding.shards.into()),
            ("threads", threads.into()),
            ("backend", backend.id().into()),
        ],
    );

    struct StreamRun {
        records: Vec<(u16, u16, f64)>,
        acc: ClassAccumulator,
        applied: usize,
    }

    // Only the sequential stream checkpoints as it goes, and it may stop
    // there; it is the run's only stream, so the lock is never contended.
    let checkpoints = Mutex::new(Checkpoints::default());
    let runs: Vec<StreamRun> = parallel_map_ordered(&streams, threads, |_, &(seed, budget)| {
        let mut stream = StimulusStream::new(m, config.stimulus, seed);
        let mut run = StreamRun {
            records: Vec::with_capacity(budget),
            acc: ClassAccumulator::empty(m),
            applied: 0,
        };
        drive_stream(
            netlist,
            config,
            backend,
            &mut stream,
            budget,
            |transition, charge| {
                if let Some((hd, zeros)) = transition {
                    run.records.push((hd as u16, zeros as u16, charge));
                    run.acc.record(hd, charge);
                }
                run.applied += 1;
                sequential
                    && (run.applied.is_multiple_of(config.check_interval) || run.applied == budget)
                    && checkpoints.lock().expect("checkpoint lock").check(
                        config,
                        &run.acc,
                        run.applied,
                    )
            },
        );
        run
    });
    let mut checkpoints = checkpoints.into_inner().expect("checkpoint lock");

    // Merge in ascending stream index — this fixed order, not float
    // algebra, is what makes the result independent of the schedule. The
    // merged prefixes double as the shards' convergence checkpoints;
    // shards never stop early, so their trajectory (and
    // `converged_after`) is advisory.
    let mut merged = ClassAccumulator::empty(m);
    let mut applied = 0usize;
    for (index, run) in runs.iter().enumerate() {
        merged.merge(&run.acc);
        applied += run.applied;
        if !sequential {
            if telemetry::enabled() {
                telemetry::gauge_set(
                    &format!("characterize.shard.{index}.samples"),
                    run.records.len() as f64,
                );
            }
            checkpoints.check(config, &merged, applied);
        }
    }
    let mut records = Vec::with_capacity(merged.total_samples() as usize);
    records.extend(runs.into_iter().flat_map(|run| run.records));

    telemetry::event(
        Level::Info,
        "characterize.stop",
        &[
            ("patterns", applied.into()),
            ("transitions", records.len().into()),
            ("shards", sharding.shards.into()),
            (
                "reason",
                checkpoints
                    .converged_after
                    .map_or("max_patterns", |_| "converged")
                    .into(),
            ),
        ],
    );

    let result = build_characterization(
        netlist.netlist().name(),
        m,
        &records,
        config.clustering,
        checkpoints.converged_after,
        checkpoints.history,
    )?;
    emit_class_telemetry(config, &result);
    Ok(result)
}

/// Per-class coefficient events plus starvation warnings. No-op when
/// telemetry is disabled.
fn emit_class_telemetry(config: &CharacterizationConfig, result: &Characterization) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("characterize.transitions", result.transitions as u64);
    let counts = result.model.sample_counts();
    for (hd, &samples) in counts.iter().enumerate() {
        telemetry::event(
            Level::Info,
            "characterize.class_samples",
            &[
                ("hd", hd.into()),
                ("samples", samples.into()),
                ("coefficient", result.model.coefficient(hd).into()),
            ],
        );
    }
    // Under uniform random stimulus the binomial tail starves the
    // extreme Hd classes; recommend the stratified stream when any
    // class stayed under the configured minimum.
    if config.stimulus == StimulusKind::UniformRandom {
        for (hd, &samples) in counts.iter().enumerate().skip(1) {
            if samples < config.min_class_samples {
                telemetry::event(
                    Level::Warn,
                    "characterize.class_starved",
                    &[
                        ("hd", hd.into()),
                        ("samples", samples.into()),
                        ("min_samples", config.min_class_samples.into()),
                        (
                            "hint",
                            "class under-sampled by uniform random stimulus; \
                             use UniformHd (--stratified) for balanced class coverage"
                                .into(),
                        ),
                    ],
                );
            }
        }
    }
}

/// Build the models from classified `(hd, stable_zeros, charge)` records.
/// Exposed for reuse by the adaptation and trace-replay paths.
///
/// The basic model's coefficients and deviations go through the two-pass
/// [`ClassAccumulator`] scheme: pass one pins the eq. 4 class means, pass
/// two accumulates the eq. 5 absolute deviations around them.
pub(crate) fn build_characterization(
    module: &str,
    m: usize,
    records: &[(u16, u16, f64)],
    clustering: ZeroClustering,
    converged_after: Option<usize>,
    history: Vec<ConvergencePoint>,
) -> Result<Characterization, ModelError> {
    // Basic model: eq. 4 means, then eq. 5 deviations around them.
    let mut acc = ClassAccumulator::empty(m);
    for &(hd, _zeros, q) in records {
        acc.record(hd as usize, q);
    }
    if !acc.counts().iter().skip(1).any(|&c| c > 0) {
        return Err(ModelError::EmptyCharacterization {
            module: module.to_string(),
            transitions: records.len(),
        });
    }
    let coeffs = acc.coefficients();
    for &(hd, _zeros, q) in records {
        acc.record_deviation(hd as usize, q, &coeffs);
    }
    let deviations = acc.deviations();
    let basic = HdModel::from_parts(module, m, coeffs, deviations, acc.counts().to_vec());

    // Enhanced model: eq. 3 subgroups.
    let mut e_sums: Vec<Vec<f64>> = (1..=m)
        .map(|i| vec![0.0; clustering.groups(m, i)])
        .collect();
    let mut e_counts: Vec<Vec<u64>> = (1..=m).map(|i| vec![0; clustering.groups(m, i)]).collect();
    for &(hd, zeros, q) in records {
        let (hd, zeros) = (hd as usize, zeros as usize);
        if hd == 0 {
            continue;
        }
        let g = clustering.group_of(m, hd, zeros);
        e_sums[hd - 1][g] += q;
        e_counts[hd - 1][g] += 1;
    }
    let e_coeffs: Vec<Vec<f64>> = e_sums
        .iter()
        .zip(&e_counts)
        .map(|(srow, crow)| {
            srow.iter()
                .zip(crow)
                .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                .collect()
        })
        .collect();
    let mut e_dev_sums: Vec<Vec<f64>> = e_counts.iter().map(|row| vec![0.0; row.len()]).collect();
    for &(hd, zeros, q) in records {
        let (hd, zeros) = (hd as usize, zeros as usize);
        if hd == 0 {
            continue;
        }
        let g = clustering.group_of(m, hd, zeros);
        let p = e_coeffs[hd - 1][g];
        if p > 0.0 {
            e_dev_sums[hd - 1][g] += ((q - p) / p).abs();
        }
    }
    let e_devs: Vec<Vec<f64>> = e_dev_sums
        .iter()
        .zip(&e_counts)
        .map(|(srow, crow)| {
            srow.iter()
                .zip(crow)
                .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                .collect()
        })
        .collect();

    let enhanced =
        EnhancedHdModel::from_parts(basic.clone(), clustering, e_coeffs, e_devs, e_counts);

    Ok(Characterization {
        model: basic,
        enhanced,
        transitions: records.len(),
        converged_after,
        history,
    })
}

/// Characterize from an existing reference [`hdpm_sim::Trace`] instead of
/// generating fresh random patterns — useful for replaying recorded or
/// application-specific characterization stimuli.
///
/// # Errors
///
/// Returns [`ModelError::EmptyCharacterization`] when the trace holds no
/// transition in any Hd class `i ≥ 1`.
pub fn characterize_trace(
    trace: &hdpm_sim::Trace,
    clustering: ZeroClustering,
) -> Result<Characterization, ModelError> {
    let records: Vec<(u16, u16, f64)> = trace
        .samples
        .iter()
        .map(|s| (s.hd as u16, s.stable_zeros as u16, s.charge))
        .collect();
    build_characterization(
        &trace.module,
        trace.input_width,
        &records,
        clustering,
        None,
        Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_netlist::modules;

    fn quick_config() -> CharacterizationConfig {
        CharacterizationConfig {
            max_patterns: 4000,
            check_interval: 1000,
            ..CharacterizationConfig::default()
        }
    }

    #[test]
    fn coefficients_increase_with_hd() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let c = characterize(&adder, &quick_config()).unwrap();
        let model = &c.model;
        // The curve rises over the well-populated bulk of the binomial Hd
        // range (it saturates and rolls off at the extreme classes, where
        // complementing every input leaves the XOR propagate chains
        // invariant — visible in the paper's Fig. 1 saturation too).
        assert!(model.coefficient(1) > 0.0);
        assert!(model.coefficient(2) > model.coefficient(1));
        assert!(model.coefficient(4) > model.coefficient(2));
        assert!(model.coefficient(5) > model.coefficient(3));
    }

    #[test]
    fn deviations_shrink_for_large_hd() {
        // §4.1: "the relative coefficient deviations are decreasing for
        // larger values of the Hamming-distance."
        let mul = modules::csa_multiplier(6, 6).unwrap().validate().unwrap();
        let c = characterize(&mul, &quick_config()).unwrap();
        let low = c.model.deviation(2);
        let high = c.model.deviation(10);
        assert!(
            high < low,
            "deviation at Hd 10 ({high}) should be below Hd 2 ({low})"
        );
    }

    #[test]
    fn characterization_converges() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let config = CharacterizationConfig {
            max_patterns: 60_000,
            check_interval: 4_000,
            convergence_tol: 0.05,
            ..CharacterizationConfig::default()
        };
        let c = characterize(&adder, &config).unwrap();
        assert!(
            c.converged_after.is_some(),
            "expected convergence, history: {:?}",
            c.history
        );
    }

    #[test]
    fn enhanced_model_separates_zero_rich_transitions() {
        // For an adder, transitions among low (zero-heavy) operand values
        // exercise less of the carry chain than transitions among high
        // values: the all-stable-zeros subgroup should sit below the
        // no-stable-zeros subgroup for small Hd.
        let adder = modules::ripple_adder(8).unwrap().validate().unwrap();
        let config = CharacterizationConfig {
            max_patterns: 12_000,
            ..quick_config()
        };
        let c = characterize(&adder, &config).unwrap();
        let m = 16;
        let hd = 2;
        let row = c.enhanced.coefficient_row(hd);
        let counts = c.enhanced.sample_count_row(hd);
        let groups = row.len();
        assert_eq!(groups, m - hd + 1);
        // Compare low-zeros vs high-zeros ends where populated.
        let low_zero = (0..groups / 4)
            .filter(|&g| counts[g] > 3)
            .map(|g| row[g])
            .fold(f64::NAN, f64::max);
        let high_zero = (3 * groups / 4..groups)
            .filter(|&g| counts[g] > 3)
            .map(|g| row[g])
            .fold(f64::NAN, f64::min);
        if low_zero.is_finite() && high_zero.is_finite() {
            assert!(
                high_zero < low_zero,
                "all-zeros subgroup {high_zero} should be below no-zeros {low_zero}"
            );
        }
    }

    #[test]
    fn uniform_hd_stimulus_balances_class_counts() {
        let adder = modules::ripple_adder(8).unwrap().validate().unwrap();
        let config = CharacterizationConfig {
            max_patterns: 8000,
            stimulus: StimulusKind::UniformHd,
            convergence_tol: 0.0,
            ..CharacterizationConfig::default()
        };
        let c = characterize(&adder, &config).unwrap();
        let counts = c.model.sample_counts();
        // Every class (1..=16) should be populated with roughly
        // n/(m+1) = ~470 samples; allow wide slack.
        for (i, &count) in counts.iter().enumerate().skip(1) {
            assert!(
                count > 200,
                "class {i} starved under UniformHd: {count} samples"
            );
        }
        // The extreme classes must be far better sampled than under a
        // uniform random stream, where P(Hd = 1) = 16/2^16.
        assert!(counts[1] > 100);
        assert!(counts[16] > 100);
    }

    #[test]
    fn uniform_hd_class_means_match_uniform_random() {
        // Both stimuli must estimate the same class-conditional means
        // (the UniformHd draw is the exact conditional law).
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let base = CharacterizationConfig {
            max_patterns: 40_000,
            convergence_tol: 0.0,
            ..CharacterizationConfig::default()
        };
        let uniform = characterize(&adder, &base).unwrap();
        let stratified = characterize(
            &adder,
            &CharacterizationConfig {
                stimulus: StimulusKind::UniformHd,
                ..base
            },
        )
        .unwrap();
        // Compare the well-populated central classes.
        for i in 3..=5 {
            let a = uniform.model.coefficient(i);
            let b = stratified.model.coefficient(i);
            assert!(
                ((a - b) / a).abs() < 0.05,
                "class {i}: uniform {a} vs stratified {b}"
            );
        }
    }

    #[test]
    fn trace_replay_matches_direct_characterization() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let patterns = hdpm_sim::random_patterns(8, 3000, 42);
        let trace = hdpm_sim::run_patterns(&adder, &patterns, DelayModel::Unit);
        let c = characterize_trace(&trace, ZeroClustering::Full).unwrap();
        assert_eq!(c.transitions, 2999);
        assert!(c.model.coefficient(4) > 0.0);
    }

    #[test]
    fn characterization_is_deterministic() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let a = characterize(&adder, &quick_config()).unwrap();
        let b = characterize(&adder, &quick_config()).unwrap();
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn zero_transition_budget_is_a_structured_error() {
        // Regression: a pattern budget of 0 or 1 produces no transition,
        // which used to trip an internal 0/0 panic deep in model assembly.
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        for budget in [0usize, 1] {
            let config = CharacterizationConfig {
                max_patterns: budget,
                ..CharacterizationConfig::default()
            };
            match characterize(&adder, &config) {
                Err(ModelError::EmptyCharacterization {
                    module,
                    transitions,
                }) => {
                    assert_eq!(transitions, 0, "budget {budget}");
                    assert!(module.contains("ripple_adder"));
                }
                other => panic!("budget {budget}: expected EmptyCharacterization, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_trace_is_a_structured_error() {
        let trace = hdpm_sim::Trace {
            module: "empty".into(),
            input_width: 4,
            samples: Vec::new(),
        };
        assert!(matches!(
            characterize_trace(&trace, ZeroClustering::Full),
            Err(ModelError::EmptyCharacterization { transitions: 0, .. })
        ));
    }

    #[test]
    fn sharded_is_invariant_in_thread_count() {
        // The full module-family matrix lives in tests/parallel_conformance.rs;
        // this is the quick in-crate smoke check.
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let config = CharacterizationConfig {
            max_patterns: 1600,
            ..CharacterizationConfig::default()
        };
        let reference = characterize_sharded(
            &adder,
            &config,
            &ShardingConfig {
                shards: 4,
                threads: 1,
            },
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let c = characterize_sharded(&adder, &config, &ShardingConfig { shards: 4, threads })
                .unwrap();
            assert_eq!(reference, c, "threads = {threads}");
        }
        // Every shard's first pattern initializes; the rest are transitions.
        assert_eq!(reference.transitions, 1600 - 4);
    }

    #[test]
    fn sharded_stimuli_cover_every_kind() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        for stimulus in [
            StimulusKind::UniformRandom,
            StimulusKind::SignalProbSweep,
            StimulusKind::UniformHd,
        ] {
            let config = CharacterizationConfig {
                max_patterns: 1200,
                stimulus,
                ..CharacterizationConfig::default()
            };
            let sharding = ShardingConfig {
                shards: 3,
                threads: 2,
            };
            let a = characterize_sharded(&adder, &config, &sharding).unwrap();
            let b = characterize_sharded(&adder, &config, &sharding).unwrap();
            assert_eq!(a, b, "{stimulus:?} must be reproducible");
            assert!(a.model.coefficient(4) > 0.0);
        }
    }

    #[test]
    fn shard_count_is_part_of_the_result_identity() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let config = CharacterizationConfig {
            max_patterns: 2000,
            ..CharacterizationConfig::default()
        };
        let two = characterize_sharded(
            &adder,
            &config,
            &ShardingConfig {
                shards: 2,
                threads: 1,
            },
        )
        .unwrap();
        let four = characterize_sharded(
            &adder,
            &config,
            &ShardingConfig {
                shards: 4,
                threads: 1,
            },
        )
        .unwrap();
        // Different shard counts select different pattern streams...
        assert_ne!(two.model, four.model);
        // ...but agree statistically on the well-populated classes.
        for i in 3..=5 {
            let a = two.model.coefficient(i);
            let b = four.model.coefficient(i);
            assert!(((a - b) / a).abs() < 0.2, "class {i}: {a} vs {b}");
        }
    }

    #[test]
    fn backends_agree_sequentially() {
        // The headline contract (full matrix in tests/sim_conformance.rs):
        // the bit-plane engine is bit-identical to the event-driven
        // oracle, including mid-block convergence stops.
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let mut config = quick_config();
        config.check_interval = 300; // not lane-aligned: stops mid-block
        config.convergence_tol = 0.08;
        let event = characterize_with_backend(
            &adder,
            &config,
            &ShardingConfig::SEQUENTIAL,
            SimBackend::Event,
        )
        .unwrap();
        let bitplane = characterize_with_backend(
            &adder,
            &config,
            &ShardingConfig::SEQUENTIAL,
            SimBackend::Bitplane,
        )
        .unwrap();
        assert_eq!(event, bitplane);
    }

    #[test]
    fn backends_agree_when_sharded() {
        let mul = modules::csa_multiplier(4, 4).unwrap().validate().unwrap();
        let config = CharacterizationConfig {
            max_patterns: 1500,
            ..quick_config()
        };
        let sharding = ShardingConfig {
            shards: 4,
            threads: 2,
        };
        let event = characterize_with_backend(&mul, &config, &sharding, SimBackend::Event).unwrap();
        let bitplane =
            characterize_with_backend(&mul, &config, &sharding, SimBackend::Bitplane).unwrap();
        assert_eq!(event, bitplane);
    }

    #[test]
    fn registered_netlists_fall_back_to_the_oracle() {
        // Sequential state is not lane-parallelizable; the MAC must take
        // the event-driven path under either requested backend and agree.
        let mac = modules::mac(4).unwrap().validate().unwrap();
        assert!(!hdpm_sim::BitplaneSimulator::supports(&mac));
        let config = CharacterizationConfig {
            max_patterns: 1200,
            ..quick_config()
        };
        let event = characterize_with_backend(
            &mac,
            &config,
            &ShardingConfig::SEQUENTIAL,
            SimBackend::Event,
        )
        .unwrap();
        let bitplane = characterize_with_backend(
            &mac,
            &config,
            &ShardingConfig::SEQUENTIAL,
            SimBackend::Bitplane,
        )
        .unwrap();
        assert_eq!(event, bitplane);
    }

    #[test]
    fn default_backend_resolution_matches_explicit_bitplane() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let via_default = characterize(&adder, &quick_config()).unwrap();
        let via_explicit = characterize_with_backend(
            &adder,
            &quick_config(),
            &ShardingConfig::SEQUENTIAL,
            SimBackend::Bitplane,
        )
        .unwrap();
        assert_eq!(via_default, via_explicit);
    }

    #[test]
    fn builder_defaults_match_struct_default() {
        let built = CharacterizationConfig::builder().build().unwrap();
        assert_eq!(built, CharacterizationConfig::default());
    }

    #[test]
    fn builder_sets_every_field() {
        let built = CharacterizationConfig::builder()
            .max_patterns(5_000)
            .stimulus(StimulusKind::UniformHd)
            .seed(42)
            .delay_model(DelayModel::Zero)
            .convergence_tol(0.05)
            .check_interval(500)
            .min_class_samples(3)
            .clustering(ZeroClustering::Clustered(2))
            .build()
            .unwrap();
        let expected = CharacterizationConfig {
            max_patterns: 5_000,
            stimulus: StimulusKind::UniformHd,
            seed: 42,
            delay_model: DelayModel::Zero,
            convergence_tol: 0.05,
            check_interval: 500,
            min_class_samples: 3,
            clustering: ZeroClustering::Clustered(2),
        };
        assert_eq!(built, expected);
    }

    #[test]
    fn builder_rejects_out_of_range_fields() {
        let cases: Vec<(CharacterizationConfigBuilder, &str)> = vec![
            (
                CharacterizationConfig::builder().max_patterns(1),
                "max_patterns",
            ),
            (
                CharacterizationConfig::builder().check_interval(0),
                "check_interval",
            ),
            (
                CharacterizationConfig::builder().convergence_tol(f64::NAN),
                "convergence_tol",
            ),
            (
                CharacterizationConfig::builder().convergence_tol(-0.1),
                "convergence_tol",
            ),
            (
                CharacterizationConfig::builder().min_class_samples(0),
                "min_class_samples",
            ),
            (
                CharacterizationConfig::builder().clustering(ZeroClustering::Clustered(0)),
                "clustering",
            ),
        ];
        for (builder, expected_field) in cases {
            match builder.build() {
                Err(ModelError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, expected_field);
                }
                other => panic!("expected InvalidConfig for {expected_field}, got {other:?}"),
            }
        }
    }
}
