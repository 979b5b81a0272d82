//! # hdpm-core
//!
//! The Hamming-distance power macro-model of *"A New Parameterizable Power
//! Macro-Model for Datapath Components"* (Jochens, Kruse, Schmidt, Nebel —
//! DATE 1999), implemented end to end:
//!
//! * the **basic model** (eq. 2) and the **enhanced model** split by
//!   stable-zero counts (eq. 3): [`HdModel`], [`EnhancedHdModel`];
//! * **characterization** from random patterns against the gate-level
//!   reference simulator, with convergence detection (eq. 4/5): one
//!   driver, [`characterize_with_backend`], whose [`ShardingConfig`]
//!   picks the sequential reference stream (`shards: 0`, shorthand
//!   [`characterize()`]) or a thread-count-invariant sharded-parallel run
//!   ([`characterize_sharded`]);
//! * **bit-width parameterization** by complexity-feature regression
//!   (eq. 6–10): [`ParameterizableModel`];
//! * **estimation** in trace, distribution and average-Hd modes behind the
//!   [`Estimator`] trait, with the §4.2 error metrics: [`evaluate`],
//!   [`distribution_vs_average`];
//! * **model serving**: [`PowerEngine`], a thread-safe facade with a
//!   two-tier content-addressed cache and single-flight characterization,
//!   and the one way into an on-disk model store;
//! * **LMS coefficient adaptation** (the §4.2 pointer to Bogliolo et al.):
//!   [`AdaptiveHdModel`];
//! * JSON **persistence** of every model type: [`persist`].
//!
//! ## Example: serve estimates from a cached engine
//!
//! ```
//! use hdpm_core::prelude::*;
//! use hdpm_datamodel::HdDistribution;
//! use hdpm_netlist::{ModuleKind, ModuleSpec};
//!
//! # fn main() -> Result<(), ModelError> {
//! let engine = PowerEngine::new(EngineOptions {
//!     config: CharacterizationConfig::builder().max_patterns(1500).build()?,
//!     ..EngineOptions::default()
//! });
//! let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
//! let dist = HdDistribution::from_bit_activities(&[0.5; 8]);
//! let cold = engine.estimate(spec, &dist)?; // characterizes once...
//! let warm = engine.estimate(spec, &dist)?; // ...then serves from memory
//! assert_eq!(warm.source, CacheSource::Memory);
//! assert_eq!(cold.charge_per_cycle, warm.charge_per_cycle);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adapt;
mod bitwise;
mod cache;
mod characterize;
mod engine;
mod error;
mod estimate;
mod fidelity;
mod library;
pub mod linalg;
mod model;
pub mod persist;
mod regress;
mod shard;
mod store;
#[doc(hidden)]
pub mod test_support;

pub use adapt::AdaptiveHdModel;
pub use bitwise::BitwiseModel;
pub use cache::{config_fingerprint, LruCache, ModelKey};
pub use characterize::{
    characterize, characterize_sharded, characterize_trace, characterize_with_backend,
    Characterization, CharacterizationConfig, CharacterizationConfigBuilder, ConvergencePoint,
    StimulusKind,
};
pub use engine::{CacheSource, EngineOptions, EngineStats, Estimate, PowerEngine, WarmReport};
pub use error::{ArtifactFaultKind, ModelError};
pub use estimate::{
    accuracy, distribution_vs_average, evaluate, evaluate_batch, predict_trace, AccuracyReport,
    DistributionVsAverage, Estimator,
};
pub use fidelity::{analytic_model, Fidelity, ANALYTIC_CONFIDENCE};
/// The per-request trace [`PowerEngine::estimate_at`] and
/// [`PowerEngine::fetch_traced`] record stage timings into.
pub use hdpm_telemetry::TraceCtx;
pub use model::{EnhancedHdModel, HdModel, ZeroClustering};
pub use regress::{ParameterizableModel, Prototype, PrototypeSet};
pub use shard::{
    parallel_map_ordered, resolve_threads, shard_budgets, shard_seed, threads_from_env,
    ClassAccumulator, ShardingConfig,
};
pub use store::{
    fsck, quarantine_path, FsckEntry, FsckOptions, FsckReport, FsckStatus, RepairAction, META_DIR,
    QUARANTINE_DIR,
};
// The backend selector is defined next to the simulators in `hdpm-sim`;
// re-exported here because `characterize_with_backend` takes it.
pub use hdpm_sim::SimBackend;

pub mod prelude {
    //! One-line import of what a typical caller needs: the engine facade,
    //! configuration (with builder), the model types behind [`Estimator`],
    //! trace evaluation and the error type.
    //!
    //! ```
    //! use hdpm_core::prelude::*;
    //! ```
    pub use crate::{
        characterize, evaluate, evaluate_batch, AccuracyReport, CacheSource, Characterization,
        CharacterizationConfig, EngineOptions, EnhancedHdModel, Estimate, Estimator, Fidelity,
        HdModel, ModelError, PowerEngine,
    };
}
