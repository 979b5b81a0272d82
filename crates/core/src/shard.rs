//! Deterministic sharding primitives for parallel characterization and
//! batch estimation.
//!
//! A sharded run splits a pattern budget into `S` independent shards,
//! each with its own RNG stream derived from the base seed by
//! [`shard_seed`] (a splitmix64 finalizer, so derived streams never
//! collide). Shards execute on any number of worker threads; their
//! per-class [`ClassAccumulator`]s and sample records are merged in
//! ascending shard index regardless of completion order, which makes the
//! resulting coefficient tables **bit-identical for every thread count,
//! including one**. See `docs/parallelism.md` for the full scheme.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Odd constant of the splitmix64 sequence (the golden-ratio increment);
/// multiplying the shard index by an odd constant keeps the seed inputs
/// distinct modulo 2⁶⁴ for every base seed.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derive the RNG seed of shard `index` from the run's base seed.
///
/// The derivation is a splitmix64 finalizer over
/// `base + (index + 1)·γ`. Every step is a bijection on `u64`, so two
/// different shard indices can never yield the same seed under one base
/// seed — a guarantee, not a statistical hope (a property test pins it
/// regardless).
pub fn shard_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(GOLDEN_GAMMA.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Split a pattern budget into per-shard budgets that sum to `total`,
/// with the remainder spread over the leading shards.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_budgets(total: usize, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "need at least one shard");
    let base = total / shards;
    let remainder = total % shards;
    (0..shards)
        .map(|i| base + usize::from(i < remainder))
        .collect()
}

/// Resolve a requested thread count: `0` means "all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Worker thread count from the `HDPM_THREADS` environment variable
/// (the CI thread-matrix knob), resolved through [`resolve_threads`]:
/// unset, unparsable or `0` all mean "all available cores".
pub fn threads_from_env() -> usize {
    let requested = std::env::var("HDPM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    resolve_threads(requested)
}

/// Execution shape of a characterization run. `shards` determines the
/// *result* (it fixes the pattern streams); `threads` only determines the
/// *schedule* and never changes a single output bit. `shards: 0` is the
/// sequential reference stream ([`ShardingConfig::SEQUENTIAL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardingConfig {
    /// Number of deterministic pattern shards; `0` runs the sequential
    /// stream, which alone checkpoints every `check_interval` patterns
    /// and stops early once converged.
    pub shards: usize,
    /// Worker threads; `0` means all available cores.
    pub threads: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig {
            shards: 8,
            threads: 0,
        }
    }
}

impl ShardingConfig {
    /// The sequential reference stream: one pattern stream seeded by the
    /// configuration seed, on one thread.
    pub const SEQUENTIAL: ShardingConfig = ShardingConfig {
        shards: 0,
        threads: 1,
    };

    /// The worker count this configuration will actually run with.
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// Order-independent per-Hd-class accumulator: sample count, charge sum
/// and (second-pass) absolute-deviation sum per class.
///
/// The type forms a commutative monoid under [`ClassAccumulator::merge`]
/// with [`ClassAccumulator::empty`] as identity: counts add exactly, and
/// the `f64` sums add with IEEE-754 commutativity (`a + b == b + a`
/// bit-for-bit). Associativity holds up to rounding; determinism of the
/// sharded flow therefore comes from always merging in ascending shard
/// index, not from float algebra.
///
/// Deviations use a two-pass scheme: pass one accumulates counts and
/// charge sums (from which the class coefficients `p_i` are derived),
/// pass two re-walks the records with the pinned coefficients via
/// [`ClassAccumulator::record_deviation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassAccumulator {
    counts: Vec<u64>,
    charge_sums: Vec<f64>,
    dev_sums: Vec<f64>,
}

impl ClassAccumulator {
    /// The merge identity for an `m`-bit module (classes `0..=m`).
    pub fn empty(m: usize) -> Self {
        ClassAccumulator {
            counts: vec![0; m + 1],
            charge_sums: vec![0.0; m + 1],
            dev_sums: vec![0.0; m + 1],
        }
    }

    /// Module input width `m` the accumulator was sized for.
    pub fn width(&self) -> usize {
        self.counts.len() - 1
    }

    /// Pass one: add a transition's charge to its Hd class.
    ///
    /// # Panics
    ///
    /// Panics if `hd` exceeds the accumulator width.
    pub fn record(&mut self, hd: usize, charge: f64) {
        self.counts[hd] += 1;
        self.charge_sums[hd] += charge;
    }

    /// Pass two: add a transition's absolute relative deviation around the
    /// pinned class coefficient `coeffs[hd]` (skipped for non-positive
    /// coefficients, where eq. 5 is undefined).
    pub fn record_deviation(&mut self, hd: usize, charge: f64, coeffs: &[f64]) {
        let p = coeffs[hd];
        if p > 0.0 {
            self.dev_sums[hd] += ((charge - p) / p).abs();
        }
    }

    /// Merge another shard's accumulator into this one (element-wise
    /// sums). Order of a *pair* does not matter; the sharded flow still
    /// merges in ascending shard index so that longer chains associate
    /// identically on every schedule.
    ///
    /// # Panics
    ///
    /// Panics if the accumulators were sized for different widths.
    pub fn merge(&mut self, other: &ClassAccumulator) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "accumulator width mismatch"
        );
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
            self.charge_sums[i] += other.charge_sums[i];
            self.dev_sums[i] += other.dev_sums[i];
        }
    }

    /// Per-class sample counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-class charge sums.
    pub fn charge_sums(&self) -> &[f64] {
        &self.charge_sums
    }

    /// Total samples across all classes.
    pub fn total_samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-class mean charges (eq. 4): `charge_sum / count`, `0.0` for
    /// classes that received no samples (never a silent `0/0 = NaN`).
    pub fn coefficients(&self) -> Vec<f64> {
        self.counts
            .iter()
            .zip(&self.charge_sums)
            .map(|(&c, &s)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }

    /// Per-class mean absolute deviations (eq. 5), `0.0` where undefined.
    pub fn deviations(&self) -> Vec<f64> {
        self.counts
            .iter()
            .zip(&self.dev_sums)
            .map(|(&c, &s)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }
}

/// Map `f` over `items` on up to `threads` scoped worker threads,
/// returning results in input order.
///
/// Workers claim indices from a shared atomic counter (work stealing),
/// but every result lands in its input slot, so the output — and
/// anything merged from it in index order — is independent of the thread
/// count and of scheduling. With one effective worker the closure runs
/// inline on the caller's thread.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates the first panic raised by `f`.
pub fn parallel_map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let result = f(index, &items[index]);
                *slots[index].lock().expect("no poisoned workers") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker completed")
                .expect("every index visited")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a = shard_seed(0xC0FFEE, 0);
        let b = shard_seed(0xC0FFEE, 1);
        assert_ne!(a, b);
        assert_eq!(a, shard_seed(0xC0FFEE, 0), "derivation is pure");
        assert_ne!(shard_seed(1, 0), shard_seed(2, 0), "base seed matters");
    }

    #[test]
    fn budgets_sum_to_total_and_balance() {
        assert_eq!(shard_budgets(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(shard_budgets(3, 8).iter().sum::<usize>(), 3);
        assert_eq!(shard_budgets(0, 2), vec![0, 0]);
        for (total, shards) in [(12_000, 8), (4001, 3), (7, 7)] {
            let budgets = shard_budgets(total, shards);
            assert_eq!(budgets.iter().sum::<usize>(), total);
            let max = budgets.iter().max().unwrap();
            let min = budgets.iter().min().unwrap();
            assert!(max - min <= 1, "budgets stay balanced: {budgets:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panic() {
        shard_budgets(10, 0);
    }

    #[test]
    fn resolve_threads_maps_zero_to_available() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(
            ShardingConfig::default().effective_threads(),
            resolve_threads(0)
        );
    }

    #[test]
    fn accumulator_two_pass_means() {
        let mut acc = ClassAccumulator::empty(4);
        acc.record(2, 10.0);
        acc.record(2, 30.0);
        acc.record(4, 8.0);
        let coeffs = acc.coefficients();
        assert_eq!(coeffs[2], 20.0);
        assert_eq!(coeffs[3], 0.0, "empty class is 0.0, not NaN");
        acc.record_deviation(2, 10.0, &coeffs);
        acc.record_deviation(2, 30.0, &coeffs);
        acc.record_deviation(4, 8.0, &coeffs);
        let devs = acc.deviations();
        assert!((devs[2] - 0.5).abs() < 1e-12);
        assert_eq!(devs[4], 0.0);
        assert_eq!(acc.total_samples(), 3);
    }

    #[test]
    fn accumulator_merge_matches_flat_accumulation_on_counts() {
        let mut a = ClassAccumulator::empty(3);
        let mut b = ClassAccumulator::empty(3);
        a.record(1, 5.0);
        b.record(1, 7.0);
        b.record(3, 2.0);
        let mut merged = ClassAccumulator::empty(3);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.counts(), &[0, 2, 0, 1]);
        assert_eq!(merged.charge_sums()[1], 12.0);
        // Identity element leaves the accumulator unchanged.
        let before = merged.clone();
        merged.merge(&ClassAccumulator::empty(3));
        assert_eq!(merged, before);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn accumulator_width_mismatch_panics() {
        let mut a = ClassAccumulator::empty(3);
        a.merge(&ClassAccumulator::empty(4));
    }

    #[test]
    fn parallel_map_preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let got = parallel_map_ordered(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map_ordered(&empty, 4, |_, &x: &usize| x).is_empty());
    }
}
