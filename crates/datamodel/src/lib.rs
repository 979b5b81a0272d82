//! # hdpm-datamodel
//!
//! The word-level data model of §6 of *"A New Parameterizable Power
//! Macro-Model for Datapath Components"* (DATE 1999):
//!
//! * dual-bit-type **breakpoints** and the reduced two-region model
//!   ([`breakpoints`], [`region_model`], [`RegionModel`]),
//! * the **average Hamming distance** of a stream (eq. 11,
//!   [`RegionModel::average_hd`]),
//! * the **Hamming-distance distribution** (eq. 12–18,
//!   [`HdDistribution`]), including the multi-input convolution extension,
//! * **word-level statistics propagation** through dataflow operators
//!   ([`DataflowGraph`]), following Landman \[9\] and Ramprasad et al. \[10\],
//! * the Gaussian numerics behind the sign-region activity
//!   ([`sign_change_probability`]).
//!
//! ## Example
//!
//! ```
//! use hdpm_datamodel::{region_model, HdDistribution, WordModel};
//! use hdpm_streams::DataType;
//!
//! // Analytic Hd distribution of a speech-like 16-bit stream...
//! let words = DataType::Speech.generate(16, 5000, 1);
//! let model = WordModel::from_words(&words, 16);
//! let analytic = HdDistribution::from_regions(&region_model(&model));
//!
//! // ...compared against the extracted one (the paper's Fig. 9).
//! let extracted = HdDistribution::from_histogram(
//!     &hdpm_streams::hd_histogram(&words, 16),
//! );
//! assert!(analytic.total_variation(&extracted) < 0.35);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dbt;
mod hd_dist;
mod joint;
mod normal;
mod propagate;

pub use dbt::{
    breakpoints, empirical_region_model, region_model, three_region_model, Breakpoints,
    RegionModel, ThreeRegionModel, WordModel,
};
pub use hd_dist::{operand_distribution, HdDistribution};
pub use joint::JointHdZeroDistribution;
pub use normal::{erf, negative_probability, normal_cdf, normal_pdf, sign_change_probability};
pub use propagate::{
    abs, add, delay, mul, mux, scale, sub, DataflowGraph, DataflowOp, NodeId, SignalMoments,
};
