//! Seeded inputs: the cold-ladder spec list and the warm working set are
//! pure functions of the workload seed, so the same seed always sends
//! the same requests.

use hdpm_core::Fidelity;
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::Request;
use hdpm_streams::{DataType, ALL_DATA_TYPES};

/// Stream length of every estimate request (the protocol default).
pub const CYCLES: u32 = 2000;

/// The ladder's families and widths, ascending per family. The mix is
/// fixed so that every seed prices the same work: adders and multipliers
/// at widths 4–12, each family long enough to reach tier B (two siblings
/// for adders, three for multipliers). Twelve of the eighteen rungs are
/// multipliers, so the median full answer is a simulator-bound one. The
/// width-7 multipliers fill what was otherwise a 3 ms gap between the
/// two middle rungs' full answers, across which the pooled median
/// jumped from run to run.
const LADDER: [(ModuleKind, &[usize]); 4] = [
    (ModuleKind::RippleAdder, &[4, 8, 12]),
    (ModuleKind::ClaAdder, &[4, 8, 12]),
    (ModuleKind::CsaMultiplier, &[4, 5, 6, 7, 8, 11]),
    (ModuleKind::BoothWallaceMultiplier, &[4, 5, 6, 7, 8, 11]),
];

/// Data types per warm spec.
const WARM_DATA_TYPES: usize = 3;

/// SplitMix64: a small, fully specified generator, so the request list
/// cannot change under a dependency upgrade.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A stream seed that fits every wire encoding.
    fn stream_seed(&mut self) -> u64 {
        self.next_u64() & 0x7FFF_FFFF
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One estimate key: module, operand statistics and stream seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    pub spec: ModuleSpec,
    pub data: DataType,
    pub seed: u64,
}

impl Key {
    pub fn request(&self, floor: Option<Fidelity>) -> Request {
        Request::Estimate {
            spec: self.spec,
            data: self.data,
            cycles: CYCLES,
            seed: self.seed,
            floor,
        }
    }
}

/// One rung of the cold ladder: a never-seen spec and the tier its first
/// answer must come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub key: Key,
    pub first_tier: Fidelity,
}

/// Everything a run sends, derived from the workload seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub seed: u64,
    /// Cold ladder, in request order.
    pub ladder: Vec<Rung>,
    /// Warm working set: two ladder specs per family × three data types.
    pub warm: Vec<Key>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        // Data types rotate along the ladder table, so each serves three or
        // four rungs and every seed prices the same (spec, data type)
        // pairs: the seed moves the order and the streams, not the cost.
        let mut queues: Vec<Vec<(ModuleSpec, DataType)>> = Vec::new();
        let mut position = 0;
        for (kind, widths) in LADDER {
            let mut family = Vec::new();
            for &w in widths {
                family.push((
                    ModuleSpec::new(kind, w),
                    ALL_DATA_TYPES[position % ALL_DATA_TYPES.len()],
                ));
                position += 1;
            }
            family.reverse();
            queues.push(family);
        }
        // A seeded interleaving that keeps each family ascending: later
        // widths find their smaller siblings already characterized.
        let mut ladder = Vec::new();
        while queues.iter().any(|q| !q.is_empty()) {
            let open: Vec<usize> = (0..queues.len())
                .filter(|&f| !queues[f].is_empty())
                .collect();
            let family = open[rng.below(open.len())];
            let (spec, data) = queues[family].pop().expect("open family has a spec");
            let siblings = ladder
                .iter()
                .filter(|r: &&Rung| r.key.spec.kind == spec.kind)
                .count();
            let first_tier = if siblings >= spec.kind.feature_names().len() {
                Fidelity::Regressed
            } else {
                Fidelity::Analytic
            };
            let key = Key {
                spec,
                data,
                seed: rng.stream_seed(),
            };
            ladder.push(Rung { key, first_tier });
        }

        let mut data_types = ALL_DATA_TYPES.to_vec();
        rng.shuffle(&mut data_types);
        let mut warm = Vec::new();
        for (kind, _) in LADDER {
            let widths = ladder
                .iter()
                .filter(|r| r.key.spec.kind == kind)
                .map(|r| r.key.spec)
                .skip(1)
                .take(2);
            for spec in widths {
                for &data in &data_types[..WARM_DATA_TYPES] {
                    warm.push(Key {
                        spec,
                        data,
                        seed: rng.stream_seed(),
                    });
                }
            }
        }
        rng.shuffle(&mut warm);
        Plan { seed, ladder, warm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(Plan::new(7), Plan::new(7));
        assert_ne!(Plan::new(7), Plan::new(8));
        let requests = |plan: &Plan| -> Vec<Request> {
            plan.ladder
                .iter()
                .map(|r| r.key.request(Some(Fidelity::Analytic)))
                .chain(plan.warm.iter().map(|k| k.request(None)))
                .collect()
        };
        assert_eq!(requests(&Plan::new(123)), requests(&Plan::new(123)));
    }

    #[test]
    fn ladder_shape_holds_for_many_seeds() {
        for seed in 0..200 {
            let plan = Plan::new(seed);
            assert_eq!(plan.ladder.len(), 18);
            assert_eq!(plan.warm.len(), 24);
            let mut seen: Vec<ModuleSpec> = Vec::new();
            for rung in &plan.ladder {
                let spec = rung.key.spec;
                assert!(!seen.contains(&spec), "seed {seed}: {spec} repeats");
                let (w, _) = spec.width.operand_widths();
                assert!((4..=12).contains(&w));
                // Each family climbs: no smaller sibling after a wider one.
                assert!(seen.iter().filter(|s| s.kind == spec.kind).all(|s| s
                    .width
                    .operand_widths()
                    .0
                    < w));
                seen.push(spec);
            }
            let tier_b = plan
                .ladder
                .iter()
                .filter(|r| r.first_tier == Fidelity::Regressed)
                .count();
            // Adder families reach tier B once, multipliers three times.
            assert_eq!(tier_b, 8, "seed {seed}");
            for data in ALL_DATA_TYPES {
                let rungs = plan.ladder.iter().filter(|r| r.key.data == data).count();
                assert!(
                    (3..=4).contains(&rungs),
                    "seed {seed}: {data} on {rungs} rungs"
                );
            }
            assert!(plan.warm.iter().all(|k| seen.contains(&k.spec)));
        }
    }
}
