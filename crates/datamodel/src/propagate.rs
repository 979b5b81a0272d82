//! Word-level statistics propagation through a dataflow graph.
//!
//! Landman \[9\] and Ramprasad et al. \[10\] showed that the word-level
//! parameters (µ, σ², ρ) can be propagated through typical DSP operators
//! without simulation, which is what makes the macro-model usable for
//! *fast* architectural power estimation (§6). This module implements the
//! moment-propagation rules for adders, subtractors, constant multipliers,
//! full multipliers, multiplexers, delays and gains over a small dataflow
//! graph, assuming (as the references do) that distinct graph inputs are
//! uncorrelated.

use serde::{Deserialize, Serialize};

use crate::dbt::WordModel;

/// Statistical moments of one dataflow signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalMoments {
    /// Mean µ.
    pub mu: f64,
    /// Variance σ².
    pub variance: f64,
    /// Lag-1 autocorrelation ρ.
    pub rho: f64,
}

impl SignalMoments {
    /// Create moments.
    ///
    /// # Panics
    ///
    /// Panics if the variance is negative or `rho` outside `[-1, 1]`.
    pub fn new(mu: f64, variance: f64, rho: f64) -> Self {
        assert!(variance >= 0.0, "variance must be non-negative");
        assert!((-1.0..=1.0).contains(&rho), "rho {rho} outside [-1, 1]");
        SignalMoments { mu, variance, rho }
    }

    /// Standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Convert to a [`WordModel`] at a given word width.
    pub fn to_word_model(self, width: usize) -> WordModel {
        WordModel::new(self.mu, self.sigma(), self.rho, width)
    }
}

/// Propagation rule: sum of two independent signals (`add`), with the
/// paper-cited variance-weighted correlation mix.
pub fn add(a: SignalMoments, b: SignalMoments) -> SignalMoments {
    let variance = a.variance + b.variance;
    let rho = if variance == 0.0 {
        0.0
    } else {
        (a.rho * a.variance + b.rho * b.variance) / variance
    };
    SignalMoments::new(a.mu + b.mu, variance, rho.clamp(-1.0, 1.0))
}

/// Difference of two independent signals.
pub fn sub(a: SignalMoments, b: SignalMoments) -> SignalMoments {
    add(a, scale(b, -1.0))
}

/// Multiplication by a constant `c` (gain / constant multiplier): scales
/// mean and variance, leaves temporal correlation unchanged.
pub fn scale(a: SignalMoments, c: f64) -> SignalMoments {
    SignalMoments::new(c * a.mu, c * c * a.variance, a.rho)
}

/// Product of two independent signals: exact second-moment algebra
/// (`Var[XY] = σx²σy² + µx²σy² + µy²σx²`), with the lag-1 correlation of
/// the product of independent AR(1)-like processes
/// (`Cov[XtYt, Xt+1Yt+1] = ρxρyσx²σy² + µy²ρxσx² + µx²ρyσy²`).
pub fn mul(a: SignalMoments, b: SignalMoments) -> SignalMoments {
    let variance = a.variance * b.variance + a.mu * a.mu * b.variance + b.mu * b.mu * a.variance;
    let cov = a.rho * b.rho * a.variance * b.variance
        + b.mu * b.mu * a.rho * a.variance
        + a.mu * a.mu * b.rho * b.variance;
    let rho = if variance == 0.0 { 0.0 } else { cov / variance };
    SignalMoments::new(a.mu * b.mu, variance, rho.clamp(-1.0, 1.0))
}

/// A multiplexer selecting `a` with probability `p_a` (select uncorrelated
/// with the data): a mixture distribution.
///
/// # Panics
///
/// Panics if `p_a` is outside `[0, 1]`.
pub fn mux(a: SignalMoments, b: SignalMoments, p_a: f64) -> SignalMoments {
    assert!((0.0..=1.0).contains(&p_a), "mux probability {p_a}");
    let mu = p_a * a.mu + (1.0 - p_a) * b.mu;
    let second = p_a * (a.variance + a.mu * a.mu) + (1.0 - p_a) * (b.variance + b.mu * b.mu);
    let variance = (second - mu * mu).max(0.0);
    // Switching between streams decorrelates; keep the conservative mix.
    let rho = (p_a * p_a * a.rho * a.variance + (1.0 - p_a) * (1.0 - p_a) * b.rho * b.variance)
        / variance.max(f64::MIN_POSITIVE);
    SignalMoments::new(mu, variance, rho.clamp(-1.0, 1.0))
}

/// A unit delay (register): moments are unchanged.
pub fn delay(a: SignalMoments) -> SignalMoments {
    a
}

/// Absolute value of a Gaussian signal (the dataflow rule for the absval
/// module): folded-normal moments, with the lag-1 correlation computed
/// exactly for zero-mean inputs
/// (`corr(|X|,|Y|) = (2/π)(√(1−ρ²) + ρ·asin ρ − 1)/(1 − 2/π)`) and blended
/// toward the input correlation as the mean dominates (where the sign is
/// effectively constant and `|X| ≈ ±X`).
pub fn abs(a: SignalMoments) -> SignalMoments {
    let sigma = a.sigma();
    if sigma == 0.0 {
        return SignalMoments::new(a.mu.abs(), 0.0, a.rho);
    }
    let ratio = a.mu / sigma;
    // Folded-normal mean and variance.
    let phi = crate::normal::normal_pdf(ratio);
    let cdf = crate::normal::normal_cdf(ratio);
    let mean = sigma * 2.0 * phi + a.mu * (2.0 * cdf - 1.0);
    let variance = (a.mu * a.mu + sigma * sigma - mean * mean).max(0.0);

    // Zero-mean exact |X| autocorrelation, blended toward rho as the mean
    // pushes the signal away from the fold.
    let rho = a.rho.clamp(-1.0, 1.0);
    let two_over_pi = 2.0 / std::f64::consts::PI;
    let rho_folded =
        (two_over_pi * ((1.0 - rho * rho).sqrt() + rho * rho.asin() - 1.0)) / (1.0 - two_over_pi);
    let weight = (ratio.abs() / (1.0 + ratio.abs())).min(1.0);
    let rho_abs = (1.0 - weight) * rho_folded + weight * rho;
    SignalMoments::new(mean, variance, rho_abs.clamp(-1.0, 1.0))
}

/// Operators of the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DataflowOp {
    /// Primary input with known moments.
    Input(SignalMoments),
    /// Sum of two nodes.
    Add(NodeId, NodeId),
    /// Difference of two nodes.
    Sub(NodeId, NodeId),
    /// Product of two nodes.
    Mul(NodeId, NodeId),
    /// Multiplication by a constant.
    ConstMul(NodeId, f64),
    /// Unit delay.
    Delay(NodeId),
    /// Absolute value.
    Abs(NodeId),
    /// Multiplexer with select probability for the first input.
    Mux(NodeId, NodeId, f64),
}

/// Identifier of a dataflow node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A small dataflow graph for word-level statistics propagation.
///
/// Nodes must be created in topological order (every operand id must
/// already exist), which the builder API enforces.
///
/// # Examples
///
/// A first-order IIR section `y = x + c·delay(y_prev)` approximated
/// feed-forward:
///
/// ```
/// use hdpm_datamodel::{DataflowGraph, SignalMoments};
///
/// let mut g = DataflowGraph::new();
/// let x = g.input(SignalMoments::new(0.0, 1.0e6, 0.9));
/// let scaled = g.const_mul(x, 0.5);
/// let y = g.add(x, scaled);
/// let moments = g.moments(y);
/// assert!(moments.variance > 1.0e6);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DataflowGraph {
    ops: Vec<DataflowOp>,
    moments: Vec<SignalMoments>,
}

impl DataflowGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: DataflowOp, moments: SignalMoments) -> NodeId {
        let id = NodeId(self.ops.len());
        self.ops.push(op);
        self.moments.push(moments);
        id
    }

    fn get(&self, id: NodeId) -> SignalMoments {
        self.moments[id.0]
    }

    /// Add a primary input with the given moments.
    pub fn input(&mut self, moments: SignalMoments) -> NodeId {
        self.push(DataflowOp::Input(moments), moments)
    }

    /// Add an adder node.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let m = add(self.get(a), self.get(b));
        self.push(DataflowOp::Add(a, b), m)
    }

    /// Add a subtractor node.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let m = sub(self.get(a), self.get(b));
        self.push(DataflowOp::Sub(a, b), m)
    }

    /// Add a multiplier node.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let m = mul(self.get(a), self.get(b));
        self.push(DataflowOp::Mul(a, b), m)
    }

    /// Add a constant multiplier node.
    pub fn const_mul(&mut self, a: NodeId, c: f64) -> NodeId {
        let m = scale(self.get(a), c);
        self.push(DataflowOp::ConstMul(a, c), m)
    }

    /// Add a unit-delay node.
    pub fn delay(&mut self, a: NodeId) -> NodeId {
        let m = delay(self.get(a));
        self.push(DataflowOp::Delay(a), m)
    }

    /// Add an absolute-value node.
    pub fn abs(&mut self, a: NodeId) -> NodeId {
        let m = abs(self.get(a));
        self.push(DataflowOp::Abs(a), m)
    }

    /// Add a multiplexer node with select probability `p_a` for input `a`.
    ///
    /// # Panics
    ///
    /// Panics if `p_a` is outside `[0, 1]`.
    pub fn mux(&mut self, a: NodeId, b: NodeId, p_a: f64) -> NodeId {
        let m = mux(self.get(a), self.get(b), p_a);
        self.push(DataflowOp::Mux(a, b, p_a), m)
    }

    /// The propagated moments at a node.
    pub fn moments(&self, id: NodeId) -> SignalMoments {
        self.get(id)
    }

    /// Execute the graph bit-accurately on concrete word streams — the
    /// Monte-Carlo companion of the analytic moment propagation, used to
    /// validate it and to produce the per-module operand streams of an
    /// architecture for reference simulation.
    ///
    /// `input_streams[k]` supplies the stream for the `k`-th
    /// [`DataflowGraph::input`] node, in creation order. Multiplexer
    /// selects are drawn from `seed` with the configured probability;
    /// delays start at 0. Returns one stream per node.
    ///
    /// # Panics
    ///
    /// Panics if the number of input streams does not match the number of
    /// input nodes, or the streams have different lengths.
    pub fn execute(&self, input_streams: &[Vec<i64>], seed: u64) -> Vec<Vec<i64>> {
        let input_nodes: Vec<usize> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, DataflowOp::Input(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            input_streams.len(),
            input_nodes.len(),
            "graph has {} input nodes but {} streams were supplied",
            input_nodes.len(),
            input_streams.len()
        );
        let n = input_streams.first().map_or(0, Vec::len);
        for (k, s) in input_streams.iter().enumerate() {
            assert_eq!(s.len(), n, "input stream {k} length mismatch");
        }

        // Simple xorshift for mux selects — deterministic, no rand
        // dependency in this crate's public execution path.
        let mut state = seed | 1;
        let mut next_uniform = move || -> f64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };

        let mut streams: Vec<Vec<i64>> = Vec::with_capacity(self.ops.len());
        let mut next_input = 0usize;
        for op in &self.ops {
            let stream = match *op {
                DataflowOp::Input(_) => {
                    let s = input_streams[next_input].clone();
                    next_input += 1;
                    s
                }
                DataflowOp::Add(a, b) => (0..n)
                    .map(|j| streams[a.0][j].wrapping_add(streams[b.0][j]))
                    .collect(),
                DataflowOp::Sub(a, b) => (0..n)
                    .map(|j| streams[a.0][j].wrapping_sub(streams[b.0][j]))
                    .collect(),
                DataflowOp::Mul(a, b) => (0..n)
                    .map(|j| streams[a.0][j].wrapping_mul(streams[b.0][j]))
                    .collect(),
                DataflowOp::ConstMul(a, c) => (0..n)
                    .map(|j| (streams[a.0][j] as f64 * c).round() as i64)
                    .collect(),
                DataflowOp::Delay(a) => {
                    let mut s = Vec::with_capacity(n);
                    let mut prev = 0i64;
                    for &value in &streams[a.0] {
                        s.push(prev);
                        prev = value;
                    }
                    s
                }
                DataflowOp::Abs(a) => (0..n).map(|j| streams[a.0][j].wrapping_abs()).collect(),
                DataflowOp::Mux(a, b, p_a) => (0..n)
                    .map(|j| {
                        if next_uniform() < p_a {
                            streams[a.0][j]
                        } else {
                            streams[b.0][j]
                        }
                    })
                    .collect(),
            };
            streams.push(stream);
        }
        streams
    }

    /// The operator of a node.
    pub fn op(&self, id: NodeId) -> DataflowOp {
        self.ops[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_streams::{word_stats, DataType};

    fn moments_of(words: &[i64]) -> SignalMoments {
        let s = word_stats(words);
        SignalMoments::new(s.mean, s.variance, s.rho1)
    }

    #[test]
    fn add_rule_matches_simulation() {
        let a = DataType::Speech.generate(16, 40_000, 1);
        let b = DataType::Music.generate(16, 40_000, 99);
        let sum: Vec<i64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let predicted = add(moments_of(&a), moments_of(&b));
        let measured = moments_of(&sum);
        assert!((predicted.mu - measured.mu).abs() < 50.0);
        assert!((predicted.variance / measured.variance - 1.0).abs() < 0.1);
        assert!((predicted.rho - measured.rho).abs() < 0.05);
    }

    #[test]
    fn mul_rule_matches_simulation() {
        let a = DataType::Speech.generate(12, 40_000, 2);
        let b = DataType::Music.generate(12, 40_000, 77);
        let prod: Vec<i64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        let predicted = mul(moments_of(&a), moments_of(&b));
        let measured = moments_of(&prod);
        assert!(
            (predicted.variance / measured.variance - 1.0).abs() < 0.25,
            "var predicted {} vs measured {}",
            predicted.variance,
            measured.variance
        );
        assert!((predicted.rho - measured.rho).abs() < 0.1);
    }

    #[test]
    fn const_mul_rule_is_exact() {
        let a = DataType::Speech.generate(12, 20_000, 3);
        let scaled: Vec<i64> = a.iter().map(|&x| 3 * x).collect();
        let predicted = scale(moments_of(&a), 3.0);
        let measured = moments_of(&scaled);
        assert!((predicted.mu - measured.mu).abs() < 1e-6);
        assert!((predicted.variance - measured.variance).abs() < 1e-3);
        assert!((predicted.rho - measured.rho).abs() < 1e-9);
    }

    #[test]
    fn mux_mixture_moments() {
        let a = SignalMoments::new(10.0, 4.0, 0.5);
        let b = SignalMoments::new(-10.0, 1.0, 0.0);
        let m = mux(a, b, 0.5);
        assert!((m.mu - 0.0).abs() < 1e-12);
        // Mixture variance includes the mean-separation term.
        assert!(m.variance > 100.0);
    }

    #[test]
    fn graph_builds_fir_style_chain() {
        let mut g = DataflowGraph::new();
        let x = g.input(SignalMoments::new(0.0, 1.0e6, 0.95));
        let x1 = g.delay(x);
        let t0 = g.const_mul(x, 0.25);
        let t1 = g.const_mul(x1, 0.5);
        let y = g.add(t0, t1);
        assert_eq!(g.len(), 5);
        let m = g.moments(y);
        assert!(m.variance > 0.0);
        assert!(m.rho > 0.5, "filtering preserves correlation");
        assert!(matches!(g.op(y), DataflowOp::Add(_, _)));
    }

    #[test]
    fn execution_validates_propagated_moments_across_ops() {
        // Build a small graph mixing every operator; the analytically
        // propagated moments must match the statistics of the executed
        // streams within Monte-Carlo tolerance.
        // The moment rules assume operands with disjoint ancestry (the
        // independence assumption of refs [9,10]), so every binary node
        // below combines statistically independent inputs.
        let x_words = DataType::Speech.generate(14, 40_000, 5);
        let y_words = DataType::Music.generate(14, 40_000, 55);
        let z_words = DataType::Speech.generate(14, 40_000, 777);
        let w_words = DataType::Music.generate(14, 40_000, 4242);
        let (xm, ym, zm, wm) = (
            moments_of(&x_words),
            moments_of(&y_words),
            moments_of(&z_words),
            moments_of(&w_words),
        );

        let mut g = DataflowGraph::new();
        let x = g.input(xm);
        let y = g.input(ym);
        let z = g.input(zm);
        let w = g.input(wm);
        let xd = g.delay(x);
        let s = g.add(xd, y);
        let scaled = g.const_mul(s, 3.0);
        let diff = g.sub(scaled, z);
        let muxed = g.mux(diff, w, 0.7);

        let streams = g.execute(&[x_words, y_words, z_words, w_words], 99);
        for (node, label, var_tol, rho_tol) in [
            (s, "add", 0.10, 0.06),
            (scaled, "const_mul", 0.10, 0.06),
            (diff, "sub", 0.12, 0.08),
            (muxed, "mux", 0.25, 0.15),
        ] {
            let predicted = g.moments(node);
            let measured = moments_of(&streams[node.index()]);
            assert!(
                (predicted.variance / measured.variance - 1.0).abs() < var_tol,
                "{label}: var predicted {} vs measured {}",
                predicted.variance,
                measured.variance
            );
            assert!(
                (predicted.rho - measured.rho).abs() < rho_tol,
                "{label}: rho predicted {} vs measured {}",
                predicted.rho,
                measured.rho
            );
        }
    }

    #[test]
    fn abs_rule_matches_folded_normal_execution() {
        // A pure AR(1) Gaussian stream (the data model's class): the
        // folded-normal moments and the exact zero-mean |X|
        // autocorrelation must match the executed statistics. (Bursty
        // mixtures like the Speech class deviate by construction.)
        use hdpm_streams::{Ar1Gaussian, Signal};
        let words: Vec<i64> = Ar1Gaussian::new(0.0, 800.0, 0.9, 9)
            .take_samples(60_000)
            .into_iter()
            .map(|s| s.round() as i64)
            .collect();
        let input = moments_of(&words);
        let predicted = abs(input);
        let absolute: Vec<i64> = words.iter().map(|&w| w.abs()).collect();
        let measured = moments_of(&absolute);
        assert!(
            (predicted.mu / measured.mu - 1.0).abs() < 0.1,
            "mean predicted {} vs measured {}",
            predicted.mu,
            measured.mu
        );
        assert!(
            (predicted.variance / measured.variance - 1.0).abs() < 0.2,
            "var predicted {} vs measured {}",
            predicted.variance,
            measured.variance
        );
        assert!(
            (predicted.rho - measured.rho).abs() < 0.12,
            "rho predicted {} vs measured {}",
            predicted.rho,
            measured.rho
        );
    }

    #[test]
    fn abs_of_offset_signal_approaches_identity() {
        // Mean far above sigma: |X| = X, so moments pass through.
        let input = SignalMoments::new(5000.0, 100.0 * 100.0, 0.8);
        let out = abs(input);
        assert!((out.mu - 5000.0).abs() < 20.0);
        assert!((out.variance / input.variance - 1.0).abs() < 0.05);
        assert!((out.rho - 0.8).abs() < 0.1);
    }

    #[test]
    fn graph_abs_node_executes() {
        let mut g = DataflowGraph::new();
        let x = g.input(SignalMoments::new(0.0, 4.0, 0.0));
        let y = g.abs(x);
        let streams = g.execute(&[vec![-3, 2, -1]], 0);
        assert_eq!(streams[y.index()], vec![3, 2, 1]);
        assert!(matches!(g.op(y), DataflowOp::Abs(_)));
    }

    #[test]
    fn execution_delay_shifts_by_one() {
        let mut g = DataflowGraph::new();
        let x = g.input(SignalMoments::new(0.0, 1.0, 0.0));
        let d = g.delay(x);
        let streams = g.execute(&[vec![5, 7, 9]], 1);
        assert_eq!(streams[x.index()], vec![5, 7, 9]);
        assert_eq!(streams[d.index()], vec![0, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "input nodes")]
    fn execution_rejects_stream_count_mismatch() {
        let mut g = DataflowGraph::new();
        let _x = g.input(SignalMoments::new(0.0, 1.0, 0.0));
        g.execute(&[], 0);
    }

    #[test]
    fn degenerate_zero_variance_is_stable() {
        let z = SignalMoments::new(5.0, 0.0, 0.0);
        let s = add(z, z);
        assert_eq!(s.mu, 10.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.rho, 0.0);
        let p = mul(z, z);
        assert_eq!(p.mu, 25.0);
        assert_eq!(p.variance, 0.0);
    }
}
