//! The global metrics registry v2: labeled counters, gauges and log-scale
//! latency histograms behind **sharded locks**, plus the serializable
//! [`MetricsSnapshot`] view of all three.
//!
//! ## Sharding
//!
//! The v1 registry was one mutex around three `BTreeMap`s — every worker
//! thread of a serving process serialized on it for every counter bump.
//! v2 stripes the registry into [`SHARDS`] independently-locked shards:
//!
//! * **counters and histograms** shard by *thread* (each thread is
//!   pinned round-robin to one shard on first use), so concurrent
//!   writers on different threads touch different locks and a warm
//!   request path pays an uncontended lock per record;
//! * **gauges** shard by *key hash*, because a gauge is last-write-wins
//!   and both writes for one name must land in the same map.
//!
//! [`snapshot`] merges all shards into sorted `BTreeMap`s: counters by
//! summation, histograms bucket-wise, gauges by disjoint union. Metric
//! names (including rendered labels) are the merge keys, so snapshot
//! output is **deterministic** — byte-identical across runs and thread
//! counts for the same recorded totals.
//!
//! ## Labels
//!
//! A labeled series is recorded under its canonical metric key
//! `name{k1="v1",k2="v2"}` (labels sorted by key), rendered once with
//! [`metric_key`] and passed as the name to any recorder. The key is
//! also the Prometheus-compatible identity used by
//! [`crate::prometheus::render`].
//!
//! ## Recording gate
//!
//! All registry operations early-return unless telemetry output is
//! enabled **or** background recording is on ([`set_recording`]); the
//! server turns recording on so its admin plane can scrape live metrics
//! without dumping telemetry to stdio. Hot loops should still accumulate
//! into plain local integers and flush once per coarse unit of work (the
//! simulator flushes per run, not per gate event).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use serde_json::{write_f64, write_str};

use crate::{enabled, Mode};

/// Number of power-of-two latency buckets: bucket `b` holds values in
/// `[2^(b-1), 2^b)` nanoseconds, bucket 0 holds zero.
const BUCKETS: usize = 65;

/// Number of independently-locked registry shards.
pub const SHARDS: usize = 16;

/// A log-scale histogram of nanosecond durations.
///
/// Values land in power-of-two buckets, so percentiles are exact to
/// within a factor of two at any scale — plenty for latency profiling —
/// while recording stays O(1) with no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one duration in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let bucket = if ns == 0 {
            0
        } else {
            64 - ns.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// Fold another histogram into this one (bucket-wise addition). The
    /// merge is commutative and associative, so shard merge order never
    /// changes a snapshot.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value in nanoseconds.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values in nanoseconds.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) as the midpoint of the bucket the
    /// quantile rank falls into; 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        // Rank of the requested order statistic, 1-based.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_midpoint(b);
            }
        }
        self.max as f64
    }

    /// Midpoint of bucket `b`'s value range.
    fn bucket_midpoint(b: usize) -> f64 {
        if b == 0 {
            return 0.0;
        }
        let low = (1u128 << (b - 1)) as f64;
        let high = ((1u128 << b) - 1) as f64;
        (low + high) / 2.0
    }

    /// Serializable summary (count, mean and tail percentiles).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean_ns: self.mean(),
            p50_ns: self.percentile(0.50),
            p95_ns: self.percentile(0.95),
            p99_ns: self.percentile(0.99),
            max_ns: self.max,
        }
    }
}

/// Percentile summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median in nanoseconds (bucket midpoint).
    pub p50_ns: f64,
    /// 95th percentile in nanoseconds (bucket midpoint).
    pub p95_ns: f64,
    /// 99th percentile in nanoseconds (bucket midpoint).
    pub p99_ns: f64,
    /// Largest recorded value in nanoseconds (exact).
    pub max_ns: u64,
}

/// A point-in-time copy of the whole metrics registry.
///
/// Keys are canonical metric identities — `name` for unlabeled metrics,
/// `name{k1="v1",k2="v2"}` (labels sorted) for labeled ones — held in
/// `BTreeMap`s, so iteration order (and therefore every exposition
/// format) is deterministic across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by metric key.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by metric key.
    pub gauges: BTreeMap<String, f64>,
    /// Latency histogram summaries by metric key.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// One shard of the thread-sharded maps. Counters and histograms are
/// mergeable, so any thread may record any key into its own shard.
#[derive(Default)]
struct ShardData {
    counters: HashMap<String, u64>,
    histograms: HashMap<String, Histogram>,
}

struct Registry {
    /// Thread-sharded counters + histograms.
    shards: Vec<Mutex<ShardData>>,
    /// Key-hash-sharded gauges (last-write-wins needs one home per key).
    gauges: Vec<Mutex<HashMap<String, f64>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        shards: (0..SHARDS)
            .map(|_| Mutex::new(ShardData::default()))
            .collect(),
        gauges: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
    })
}

/// The shard this thread writes counters/histograms into, assigned
/// round-robin on first use so writer threads spread across the locks.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let cached = s.get();
        if cached != usize::MAX {
            return cached;
        }
        let assigned = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
        s.set(assigned);
        assigned
    })
}

/// FNV-1a over the key selects the gauge shard.
fn gauge_shard(key: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash as usize) % SHARDS
}

/// Unpoisoning lock helper: a poisoned shard only loses metrics, never
/// correctness.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);

/// Turn background metric recording on or off. While on, the registry
/// accumulates even in [`Mode::Off`] — nothing is printed, but snapshots
/// (and the server's `/metrics` scrape) see live data. The TCP server
/// enables this at startup.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether background recording is on (see [`set_recording`]).
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Whether registry writes should be applied: telemetry output enabled or
/// background recording on.
#[inline]
pub fn should_record() -> bool {
    enabled() || recording()
}

/// Render the canonical metric key: `name` when unlabeled, otherwise
/// `name{k1="v1",k2="v2"}` with labels sorted by key. This is both the
/// registry merge key and the Prometheus series identity.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => key.push_str("\\\""),
                '\\' => key.push_str("\\\\"),
                '\n' => key.push_str("\\n"),
                c => key.push(c),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

/// Add `delta` to the named monotonic counter (`name` may be a labeled
/// [`metric_key`]). No-op when disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !should_record() || delta == 0 {
        return;
    }
    let mut shard = lock(&registry().shards[thread_shard()]);
    // Warm path: the series already exists in this thread's shard, so no
    // key string is allocated.
    if let Some(counter) = shard.counters.get_mut(name) {
        *counter += delta;
        return;
    }
    shard.counters.insert(name.to_string(), delta);
}

/// Create the named counter at zero unless it exists, so it is exported
/// before its first increment — for a counter whose first increment
/// depends on timing, which would otherwise make the set of exported
/// series depend on it too. No-op when disabled.
pub fn counter_declare(name: &str) {
    if !should_record() {
        return;
    }
    let mut shard = lock(&registry().shards[thread_shard()]);
    if !shard.counters.contains_key(name) {
        shard.counters.insert(name.to_string(), 0);
    }
}

/// Set the named gauge to `value` (`name` may be a labeled
/// [`metric_key`]). No-op when disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !should_record() {
        return;
    }
    let mut shard = lock(&registry().gauges[gauge_shard(name)]);
    if let Some(slot) = shard.get_mut(name) {
        *slot = value;
        return;
    }
    shard.insert(name.to_string(), value);
}

/// Add `delta` to the named gauge (creating it at 0). No-op when
/// disabled.
pub fn gauge_add(name: &str, delta: f64) {
    if !should_record() {
        return;
    }
    let mut shard = lock(&registry().gauges[gauge_shard(name)]);
    *shard.entry(name.to_string()).or_insert(0.0) += delta;
}

/// Record a duration in the named latency histogram (`name` may be a
/// labeled [`metric_key`]). No-op when disabled.
pub fn record_duration_ns(name: &str, ns: u64) {
    if !should_record() {
        return;
    }
    record_histogram_in(&mut lock(&registry().shards[thread_shard()]), name, ns);
}

/// Record several durations under **one** shard lock. `keys` are
/// canonical metric keys (pre-render labels with [`metric_key`]); on the
/// warm path — every series already present — this allocates nothing.
/// The per-request stage flush of a traced server uses this instead of
/// eight separate [`record_duration_ns`] calls.
pub fn record_durations_ns(pairs: &[(&str, u64)]) {
    if !should_record() || pairs.is_empty() {
        return;
    }
    let mut shard = lock(&registry().shards[thread_shard()]);
    for (key, ns) in pairs {
        record_histogram_in(&mut shard, key, *ns);
    }
}

/// Record into a shard's histogram map without allocating when the
/// series already exists.
fn record_histogram_in(shard: &mut ShardData, key: &str, ns: u64) {
    if let Some(histogram) = shard.histograms.get_mut(key) {
        histogram.record(ns);
        return;
    }
    let mut histogram = Histogram::default();
    histogram.record(ns);
    shard.histograms.insert(key.to_string(), histogram);
}

/// Merge every shard into a serializable [`MetricsSnapshot`]. Works even
/// when telemetry is disabled (returns whatever was recorded while it was
/// on). Deterministic: sorted keys, order-independent merges.
pub fn snapshot() -> MetricsSnapshot {
    let registry = registry();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
    for shard in &registry.shards {
        let shard = lock(shard);
        for (key, value) in &shard.counters {
            *counters.entry(key.clone()).or_insert(0) += value;
        }
        for (key, h) in &shard.histograms {
            histograms.entry(key.clone()).or_default().merge(h);
        }
    }
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    for shard in &registry.gauges {
        let shard = lock(shard);
        for (key, value) in shard.iter() {
            gauges.insert(key.clone(), *value);
        }
    }
    MetricsSnapshot {
        counters,
        gauges,
        histograms: histograms
            .iter()
            .map(|(key, h)| (key.clone(), h.summary()))
            .collect(),
    }
}

/// Clear every metric (used between test cases and CLI subcommands).
pub fn reset() {
    let registry = registry();
    for shard in &registry.shards {
        let mut shard = lock(shard);
        shard.counters.clear();
        shard.histograms.clear();
    }
    for shard in &registry.gauges {
        lock(shard).clear();
    }
}

pub(crate) fn emit_snapshot_in_mode(mode: Mode) {
    if mode == Mode::Off {
        return;
    }
    let snap = snapshot();
    match mode {
        Mode::Off => {}
        Mode::Human => {
            if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
                return;
            }
            println!("-- telemetry ------------------------------------------------");
            for (name, value) in &snap.counters {
                println!("counter    {name:<40} {value:>14}");
            }
            for (name, value) in &snap.gauges {
                println!("gauge      {name:<40} {value:>14.3}");
            }
            for (name, h) in &snap.histograms {
                println!(
                    "histogram  {name:<40} count={} mean={:.0}ns p50={:.0}ns p95={:.0}ns p99={:.0}ns max={}ns",
                    h.count, h.mean_ns, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns
                );
            }
        }
        Mode::Json => {
            for (name, value) in &snap.counters {
                let mut line = String::from("{\"type\":\"counter\",\"name\":");
                write_str(&mut line, name);
                line.push_str(",\"value\":");
                line.push_str(&value.to_string());
                line.push('}');
                println!("{line}");
            }
            for (name, value) in &snap.gauges {
                let mut line = String::from("{\"type\":\"gauge\",\"name\":");
                write_str(&mut line, name);
                line.push_str(",\"value\":");
                write_f64(&mut line, *value);
                line.push('}');
                println!("{line}");
            }
            for (name, h) in &snap.histograms {
                let mut line = String::from("{\"type\":\"histogram\",\"name\":");
                write_str(&mut line, name);
                line.push_str(&format!(",\"count\":{}", h.count));
                line.push_str(",\"mean_ns\":");
                write_f64(&mut line, h.mean_ns);
                line.push_str(",\"p50_ns\":");
                write_f64(&mut line, h.p50_ns);
                line.push_str(",\"p95_ns\":");
                write_f64(&mut line, h.p95_ns);
                line.push_str(",\"p99_ns\":");
                write_f64(&mut line, h.p99_ns);
                line.push_str(&format!(",\"max_ns\":{}}}", h.max_ns));
                println!("{line}");
            }
        }
    }
}

/// Serialize tests that touch the global mode/registry.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_dominates_every_percentile() {
        let mut h = Histogram::default();
        h.record(1000);
        // 1000 falls in bucket [512, 1024), midpoint 767.5.
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 767.5, "quantile {q}");
        }
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1000.0);
    }

    #[test]
    fn percentiles_walk_the_bucket_cdf() {
        let mut h = Histogram::default();
        // 90 fast ops in [8, 16), 10 slow ops in [1024, 2048).
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        let fast_mid = (8.0 + 15.0) / 2.0;
        let slow_mid = (1024.0 + 2047.0) / 2.0;
        assert_eq!(h.percentile(0.50), fast_mid);
        assert_eq!(h.percentile(0.90), fast_mid);
        assert_eq!(h.percentile(0.91), slow_mid);
        assert_eq!(h.percentile(0.99), slow_mid);
        assert_eq!(h.max(), 1500);
    }

    #[test]
    fn zero_and_huge_values_hit_the_edge_buckets() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.5), 0.0);
        assert!(h.percentile(1.0) > 2.0f64.powi(62));
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn percentile_rank_uses_ceil() {
        let mut h = Histogram::default();
        h.record(1); // bucket [1, 2), midpoint 1.0
        h.record(4); // bucket [4, 8), midpoint 5.5
                     // q = 0.5 → rank ceil(1.0) = 1 → first value.
        assert_eq!(h.percentile(0.5), 1.0);
        // q = 0.51 → rank ceil(1.02) = 2 → second value.
        assert_eq!(h.percentile(0.51), 5.5);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn percentile_zero_is_rejected() {
        Histogram::default().percentile(0.0);
    }

    #[test]
    fn summary_matches_direct_percentiles() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 300, 4000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.p50_ns, h.percentile(0.5));
        assert_eq!(s.p95_ns, h.percentile(0.95));
        assert_eq!(s.p99_ns, h.percentile(0.99));
        assert_eq!(s.max_ns, 4000);
        assert_eq!(s.mean_ns, 1150.0);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut reference = Histogram::default();
        for v in [3u64, 900, 12] {
            a.record(v);
            reference.record(v);
        }
        for v in [70_000u64, 1, 900] {
            b.record(v);
            reference.record(v);
        }
        a.merge(&b);
        assert_eq!(a, reference, "merge equals recording the union");
    }

    #[test]
    fn registry_counters_accumulate_only_when_enabled() {
        // Registry tests share global state; serialize them via a lock.
        let _guard = super::test_lock();
        reset();
        crate::set_mode(Mode::Off);
        counter_add("test.counter", 5);
        assert_eq!(snapshot().counters.get("test.counter"), None);

        crate::set_mode(Mode::Human);
        counter_add("test.counter", 5);
        counter_add("test.counter", 3);
        gauge_set("test.gauge", 1.5);
        gauge_add("test.gauge", 0.5);
        record_duration_ns("test.hist", 100);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.counter"), Some(&8));
        assert_eq!(snap.gauges.get("test.gauge"), Some(&2.0));
        assert_eq!(snap.histograms.get("test.hist").unwrap().count, 1);

        crate::set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn recording_flag_collects_without_output_mode() {
        let _guard = super::test_lock();
        reset();
        crate::set_mode(Mode::Off);
        set_recording(true);
        counter_add("test.recorded", 2);
        assert_eq!(snapshot().counters.get("test.recorded"), Some(&2));
        set_recording(false);
        counter_add("test.recorded", 2);
        assert_eq!(
            snapshot().counters.get("test.recorded"),
            Some(&2),
            "writes stop when recording is off"
        );
        reset();
    }

    #[test]
    fn batched_durations_match_individual_records() {
        let _guard = super::test_lock();
        reset();
        set_recording(true);
        record_durations_ns(&[
            ("test.batch{stage=\"a\"}", 100),
            ("test.batch{stage=\"b\"}", 200),
            ("test.batch{stage=\"a\"}", 300),
        ]);
        record_duration_ns(&metric_key("test.batch", &[("stage", "a")]), 400);
        let snap = snapshot();
        assert_eq!(
            snap.histograms
                .get("test.batch{stage=\"a\"}")
                .unwrap()
                .count,
            3
        );
        assert_eq!(
            snap.histograms
                .get("test.batch{stage=\"b\"}")
                .unwrap()
                .count,
            1
        );
        set_recording(false);
        reset();
    }

    #[test]
    fn labels_are_sorted_into_a_canonical_key() {
        assert_eq!(metric_key("x", &[]), "x");
        assert_eq!(
            metric_key("x", &[("zeta", "2"), ("alpha", "1")]),
            "x{alpha=\"1\",zeta=\"2\"}"
        );
        assert_eq!(metric_key("x", &[("k", "a\"b\\c")]), "x{k=\"a\\\"b\\\\c\"}");
    }

    #[test]
    fn labeled_series_are_distinct_and_deterministic() {
        let _guard = super::test_lock();
        reset();
        set_recording(true);
        counter_add(&metric_key("test.stage", &[("stage", "decode")]), 3);
        counter_add(&metric_key("test.stage", &[("stage", "write")]), 4);
        counter_add(&metric_key("test.stage", &[("stage", "decode")]), 1);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.stage{stage=\"decode\"}"), Some(&4));
        assert_eq!(snap.counters.get("test.stage{stage=\"write\"}"), Some(&4));
        let keys: Vec<&String> = snap.counters.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "snapshot keys iterate sorted");
        set_recording(false);
        reset();
    }

    #[test]
    fn cross_thread_records_merge_into_one_series() {
        let _guard = super::test_lock();
        reset();
        set_recording(true);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        counter_add("test.merged", 1);
                        record_duration_ns("test.merged_ns", 1000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.merged"), Some(&800));
        assert_eq!(snap.histograms.get("test.merged_ns").unwrap().count, 800);
        set_recording(false);
        reset();
    }

    #[test]
    fn gauges_land_in_one_shard_per_key() {
        let _guard = super::test_lock();
        reset();
        set_recording(true);
        // Many threads racing set on the same key: the snapshot must hold
        // exactly one of the written values (no duplicate series).
        let threads: Vec<_> = (0..8)
            .map(|i| std::thread::spawn(move || gauge_set("test.racing_gauge", i as f64)))
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = snapshot();
        let value = snap.gauges.get("test.racing_gauge").copied().unwrap();
        assert!((0.0..8.0).contains(&value));
        assert_eq!(
            snap.gauges
                .keys()
                .filter(|k| k.starts_with("test."))
                .count(),
            1
        );
        set_recording(false);
        reset();
    }
}
