//! Bit-parallel ("bit-plane") gate-level simulation: 256 independent
//! input transitions per block.
//!
//! Every net is represented by a *plane* — a fixed `[u64; 4]` block
//! whose lane `j` holds the net's logic value in an independent copy of
//! the circuit simulating the `j`-th transition of a block. Gates
//! evaluate with plain bitwise ops over whole planes — one `AND` settles
//! 256 circuits at once, in array loops the compiler vectorizes for the
//! baseline target — and per-net toggle activity is gathered in
//! carry-save bit-sliced counters, added to as each delta commits.
//!
//! The engine is *conformant by construction* with the event-driven
//! [`crate::Simulator`] oracle under both delay models:
//!
//! * **Unit delay** — the block is settled for its 256 start states with
//!   one topological pass, then wave-propagated with a level-windowed
//!   dense sweep: wave `w` evaluates every gate at topological level ≥ `w`
//!   (deepest first, which preserves the oracle's simultaneous-commit
//!   wave semantics without double buffering) — a superset of the
//!   oracle's event front. A gate that the oracle would not have
//!   scheduled is already settled, so its delta is `0` and no spurious
//!   toggle is counted.
//! * **Zero delay** — one counted topological pass per block.
//!
//! Per-lane charge is summed in the same canonical order as the oracle —
//! `Σ count × energy` over toggled nets in ascending net index — so the
//! two backends produce **bit-identical** `f64` charges, not merely close
//! ones. The differential suite (`tests/sim_conformance.rs`) enforces
//! this across the full module-family matrix.
//!
//! Sequential circuits are out of scope: register state carries from one
//! transition to the next, which is exactly the dependence the lanes
//! must not have. [`BitplaneSimulator::supports`] reports this; callers
//! (the characterization drivers of `hdpm-core`) fall back to the
//! event-driven engine for register-bearing netlists.

use std::time::Instant;

use hdpm_netlist::{CellKind, NetDriver, ValidatedNetlist};

use crate::engine::{CycleResult, DelayModel, SimStats, Simulator};
use crate::pattern::BitPattern;

/// 64-bit words per net plane.
const LANE_WORDS: usize = 4;

/// Number of independent transition lanes per block — the bit width of a
/// net plane.
pub const BLOCK_LANES: usize = 64 * LANE_WORDS;

/// One net's value (or toggle mask) in every lane of a block.
type Plane = [u64; LANE_WORDS];

/// Upper bound on bit-sliced counter slices — enough for any netlist
/// whose depth fits in `u32` (a net at level `L` toggles ≤ `L` times per
/// transition).
const MAX_SLICES: usize = 32;

#[inline(always)]
fn and(a: Plane, b: Plane) -> Plane {
    std::array::from_fn(|k| a[k] & b[k])
}

#[inline(always)]
fn or(a: Plane, b: Plane) -> Plane {
    std::array::from_fn(|k| a[k] | b[k])
}

#[inline(always)]
fn xor(a: Plane, b: Plane) -> Plane {
    std::array::from_fn(|k| a[k] ^ b[k])
}

#[inline(always)]
fn not(a: Plane) -> Plane {
    a.map(|w| !w)
}

#[inline(always)]
fn is_zero(a: Plane) -> bool {
    a.iter().fold(0, |acc, w| acc | w) == 0
}

/// Carry-save add of one toggle mask into a net's bit-sliced counter
/// (`counter[s]` holds bit `s` of every lane's count): the carry stops at
/// the first slice it leaves unchanged, so a first toggle costs one slice.
#[inline(always)]
fn count_toggles(counter: &mut [Plane], delta: Plane) {
    let mut carry = delta;
    for slice in counter {
        let old = *slice;
        *slice = xor(old, carry);
        carry = and(old, carry);
        if is_zero(carry) {
            return;
        }
    }
    debug_assert!(is_zero(carry), "bit-sliced toggle counter overflow");
}

/// In-place 64×64 bit-matrix transpose (six rounds of delta swaps): after
/// the call, bit `j` of word `i` is bit `i` of the original word `j`.
/// Turns 64 lane-major patterns into one word of each net-major input
/// plane.
fn transpose64(a: &mut [u64]) {
    debug_assert_eq!(a.len(), 64);
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k + j] << j)) & !mask;
            a[k] ^= t;
            a[k + j] ^= t >> j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Net-major input planes from one pattern per lane: `rows[j]` is lane
/// `j`'s pattern, and plane `i` of the result holds input bit `i` of
/// every lane. Transposes `rows` in place, one 64-lane word at a time.
fn input_planes(rows: &mut [u64; BLOCK_LANES], inputs: usize) -> impl Iterator<Item = Plane> + '_ {
    for word in rows.chunks_exact_mut(64) {
        transpose64(word);
    }
    let rows = &*rows;
    (0..inputs).map(move |i| std::array::from_fn(|k| rows[64 * k + i]))
}

/// Which simulation engine drives a characterization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// The event-driven reference engine ([`Simulator`]) — one transition
    /// at a time, the differential oracle.
    Event,
    /// The bit-parallel engine ([`BitplaneSimulator`]) — up to
    /// [`BLOCK_LANES`] transitions per block, bit-identical to the
    /// oracle, much faster.
    #[default]
    Bitplane,
}

impl SimBackend {
    /// Stable lower-case identifier (`"event"` / `"bitplane"`).
    pub fn id(self) -> &'static str {
        match self {
            SimBackend::Event => "event",
            SimBackend::Bitplane => "bitplane",
        }
    }
}

impl std::str::FromStr for SimBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "event" => Ok(SimBackend::Event),
            "bitplane" | "bit-plane" | "bitparallel" | "bit-parallel" => Ok(SimBackend::Bitplane),
            other => Err(format!(
                "unknown sim backend `{other}` (expected `event` or `bitplane`)"
            )),
        }
    }
}

impl std::fmt::Display for SimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One gate of the flattened, topologically ordered evaluation program.
#[derive(Debug, Clone, Copy)]
struct PlaneGate {
    kind: CellKind,
    /// Input net indices; only the first `arity` entries are meaningful.
    inputs: [u32; 4],
    output: u32,
}

impl PlaneGate {
    /// Evaluate the cell function over whole planes. Mirrors
    /// [`CellKind::eval`] bit for bit in every lane.
    #[inline]
    fn eval(&self, planes: &[Plane]) -> Plane {
        let p = |k: usize| planes[self.inputs[k] as usize];
        let a = p(0);
        match self.kind {
            CellKind::Inv => not(a),
            CellKind::Buf => a,
            CellKind::Nand2 => not(and(a, p(1))),
            CellKind::Nand3 => not(and(and(a, p(1)), p(2))),
            CellKind::Nor2 => not(or(a, p(1))),
            CellKind::Nor3 => not(or(or(a, p(1)), p(2))),
            CellKind::And2 => and(a, p(1)),
            CellKind::And3 => and(and(a, p(1)), p(2)),
            CellKind::And4 => and(and(and(a, p(1)), p(2)), p(3)),
            CellKind::Or2 => or(a, p(1)),
            CellKind::Or3 => or(or(a, p(1)), p(2)),
            CellKind::Or4 => or(or(or(a, p(1)), p(2)), p(3)),
            CellKind::Xor2 => xor(a, p(1)),
            CellKind::Xnor2 => not(xor(a, p(1))),
            CellKind::Aoi21 => not(or(and(a, p(1)), p(2))),
            CellKind::Oai21 => not(and(or(a, p(1)), p(2))),
            CellKind::Mux2 => {
                let sel = p(2);
                or(and(sel, p(1)), and(not(sel), a))
            }
        }
    }
}

/// The bit-parallel simulator. Owns one plane per net plus the
/// bit-sliced per-net toggle counters of the block in flight.
///
/// Unlike [`Simulator::apply`], the unit of work is a *block*:
/// [`BitplaneSimulator::apply_block`] consumes a slice of patterns and
/// returns one [`CycleResult`] per transition, each bit-identical to what
/// the event-driven oracle returns for the same pattern sequence.
///
/// # Examples
///
/// ```
/// use hdpm_netlist::modules;
/// use hdpm_sim::{random_patterns, BitplaneSimulator, DelayModel, Simulator};
///
/// # fn main() -> Result<(), hdpm_netlist::NetlistError> {
/// let adder = modules::ripple_adder(4)?.validate()?;
/// let patterns = random_patterns(8, 100, 7);
///
/// let mut oracle = Simulator::new(&adder);
/// let mut bitplane = BitplaneSimulator::new(&adder, DelayModel::Unit);
/// let block = bitplane.apply_block(&patterns);
/// assert_eq!(block.len(), 99);
/// for (p, lane) in patterns.iter().zip(std::iter::once(None).chain(block.iter().map(Some))) {
///     let reference = oracle.apply(*p);
///     if let Some(lane) = lane {
///         assert_eq!(*lane, reference); // bit-identical charge
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitplaneSimulator<'a> {
    netlist: &'a ValidatedNetlist,
    delay_model: DelayModel,
    /// Flattened gates in topological order (the settle program).
    topo_gates: Vec<PlaneGate>,
    /// Current value plane per net.
    planes: Vec<Plane>,
    /// Plane every net resets to: constants broadcast, all else low.
    reset_planes: Vec<Plane>,
    /// Energy charged per toggle of each net (same table as the oracle).
    toggle_energy: Vec<f64>,
    /// Cumulative toggle count per net (diagnostics parity with
    /// [`Simulator::toggle_counts`]).
    toggle_counts: Vec<u64>,
    /// Input-vector net indices in model bit order.
    input_nets: Vec<u32>,
    /// Bit-sliced per-net toggle counters of the block in flight,
    /// net-major: planes `idx * slices .. (idx + 1) * slices` hold net
    /// `idx`'s count, slice `s` carrying bit `s` of every lane's count.
    counters: Vec<Plane>,
    /// Number of counter slices — enough bits for the deepest possible
    /// per-transition toggle count (a net at topo level `L` toggles at
    /// most `L` times under unit delay).
    slices: usize,
    /// Gates sorted by topological level, *descending*: the wave-`w`
    /// evaluation window is the prefix of gates at level ≥ `w`.
    wave_gates: Vec<PlaneGate>,
    /// `level_prefix[w]` = number of gates at level ≥ `w`, i.e. the length
    /// of the wave-`w` prefix of `wave_gates`; index 0 is the gate count.
    level_prefix: Vec<u32>,
    /// Last pattern of the previous block (block overlap), if any.
    prev: Option<BitPattern>,
    /// Cumulative work counters, same shape as the oracle's.
    stats: SimStats,
    flushed: SimStats,
}

impl<'a> BitplaneSimulator<'a> {
    /// Whether the bit-parallel engine can simulate this netlist: it must
    /// be purely combinational. Register state carries across transitions,
    /// which breaks lane independence — sequential netlists go to the
    /// event-driven engine instead.
    pub fn supports(netlist: &ValidatedNetlist) -> bool {
        netlist.netlist().register_count() == 0
    }

    /// Create a bit-parallel simulator over a validated combinational
    /// netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains registers (see
    /// [`BitplaneSimulator::supports`]).
    pub fn new(netlist: &'a ValidatedNetlist, delay_model: DelayModel) -> Self {
        assert!(
            Self::supports(netlist),
            "bit-plane backend requires a combinational netlist; `{}` has {} registers \
             (use the event-driven Simulator)",
            netlist.netlist().name(),
            netlist.netlist().register_count()
        );
        let nets = netlist.netlist().net_count();
        let mut toggle_energy = vec![0.0; nets];
        let mut reset_planes = vec![[0u64; LANE_WORDS]; nets];
        for idx in 0..nets {
            let net = netlist.netlist().net_id(idx);
            let internal = match netlist.netlist().driver(net) {
                NetDriver::Gate(g) => netlist.netlist().gate(g).kind().internal_cap(),
                _ => 0.0,
            };
            toggle_energy[idx] = netlist.net_load(net) + internal;
            if let NetDriver::Constant(true) = netlist.netlist().driver(net) {
                reset_planes[idx] = [u64::MAX; LANE_WORDS];
            }
        }

        // Flatten the gates in topological order: the settle program.
        let topo_gates: Vec<PlaneGate> = netlist
            .topo_order()
            .iter()
            .map(|&gid| {
                let gate = netlist.netlist().gate(gid);
                let mut inputs = [0u32; 4];
                for (k, &inp) in gate.inputs().iter().enumerate() {
                    inputs[k] = inp.index() as u32;
                }
                PlaneGate {
                    kind: gate.kind(),
                    inputs,
                    output: gate.output().index() as u32,
                }
            })
            .collect();

        // Topological level of every net: inputs/constants sit at level 0,
        // a gate output one above its deepest input. Under unit delay a
        // net at level L toggles at most L times per transition (its
        // inputs are quiet after wave L−1), so `bits(max_level)` counter
        // slices can never overflow.
        let mut level = vec![0u32; nets];
        let mut max_level = 1u32;
        for gate in &topo_gates {
            let depth = 1
                + (0..gate.kind.arity())
                    .map(|k| level[gate.inputs[k] as usize])
                    .max()
                    .unwrap_or(0);
            level[gate.output as usize] = depth;
            max_level = max_level.max(depth);
        }
        let slices = (u32::BITS - max_level.leading_zeros()) as usize;
        assert!(
            slices <= MAX_SLICES,
            "netlist depth {max_level} exceeds the bit-sliced counter budget"
        );

        // Wave-evaluation program: gates sorted by level descending. At
        // wave `w` only gates at level ≥ `w` can still change (their
        // shallower inputs are already settled), and evaluating that
        // prefix deepest-first means every gate reads the *pre-wave*
        // values of its strictly-shallower inputs — simultaneous-commit
        // semantics with no double buffering and no event scheduling.
        // Secondary sort by cell kind: gates at one level are independent
        // (inputs are strictly shallower), so batching kinds together
        // makes the evaluation dispatch branch-predictable.
        let mut wave_gates = topo_gates.clone();
        wave_gates.sort_by_key(|g| (std::cmp::Reverse(level[g.output as usize]), g.kind as u8));
        // `level_prefix[w]` = #gates at level ≥ w: per-level counts, then a
        // suffix sum.
        let mut level_prefix = vec![0u32; max_level as usize + 1];
        for gate in &wave_gates {
            level_prefix[level[gate.output as usize] as usize] += 1;
        }
        for w in (0..max_level as usize).rev() {
            level_prefix[w] += level_prefix[w + 1];
        }

        let mut sim = BitplaneSimulator {
            netlist,
            delay_model,
            topo_gates,
            planes: reset_planes.clone(),
            reset_planes,
            toggle_energy,
            toggle_counts: vec![0; nets],
            input_nets: netlist
                .netlist()
                .input_vector()
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
            counters: vec![[0; LANE_WORDS]; nets * slices],
            slices,
            wave_gates,
            level_prefix,
            prev: None,
            stats: SimStats::default(),
            flushed: SimStats::default(),
        };
        sim.settle();
        sim
    }

    /// The delay model in use.
    pub fn delay_model(&self) -> DelayModel {
        self.delay_model
    }

    /// The validated netlist this simulator was built from.
    pub fn netlist(&self) -> &'a ValidatedNetlist {
        self.netlist
    }

    /// Number of input bits the patterns must have.
    pub fn input_width(&self) -> usize {
        self.input_nets.len()
    }

    /// Settle every net plane for the current input planes: one
    /// topological full pass, uncounted. After this, lane `j` of every
    /// plane holds the settled combinational value for lane `j`'s inputs.
    fn settle(&mut self) {
        for gate in &self.topo_gates {
            self.planes[gate.output as usize] = gate.eval(&self.planes);
        }
    }

    /// Commit `new` as net `idx`'s plane, counting the lanes it toggles.
    /// Returns whether any lane toggled.
    #[inline(always)]
    fn commit(
        planes: &mut [Plane],
        counters: &mut [Plane],
        slices: usize,
        idx: usize,
        new: Plane,
    ) -> bool {
        let delta = xor(planes[idx], new);
        if is_zero(delta) {
            return false;
        }
        planes[idx] = new;
        count_toggles(&mut counters[idx * slices..(idx + 1) * slices], delta);
        true
    }

    /// Apply a sequence of patterns and return one [`CycleResult`] per
    /// transition, bit-identical to feeding the same sequence through
    /// [`Simulator::apply`] one pattern at a time.
    ///
    /// The simulator carries the last pattern across calls: the first
    /// pattern of the first call initializes the circuit (uncharged, no
    /// result), exactly like the oracle's first [`Simulator::apply`];
    /// afterwards every pattern is one charged transition. Internally the
    /// sequence is chunked into blocks of up to [`BLOCK_LANES`]
    /// transitions; short or ragged tails occupy only the low lanes of
    /// their block and the spare lanes replicate the final pattern, so
    /// they toggle nothing and charge nothing.
    ///
    /// # Panics
    ///
    /// Panics if any pattern's width does not match
    /// [`BitplaneSimulator::input_width`].
    pub fn apply_block(&mut self, patterns: &[BitPattern]) -> Vec<CycleResult> {
        for p in patterns {
            assert_eq!(
                p.width(),
                self.input_width(),
                "pattern width {} does not match module input width {}",
                p.width(),
                self.input_width()
            );
        }
        let start = hdpm_telemetry::enabled().then(Instant::now);
        let mut results = Vec::with_capacity(patterns.len());
        let mut cursor = 0usize;
        while cursor < patterns.len() {
            match self.prev {
                None => {
                    // The very first pattern initializes; it is the start
                    // state of the block's first transition. It still
                    // counts as an applied pattern, like the oracle's
                    // first uncharged `apply`.
                    self.prev = Some(patterns[cursor]);
                    self.stats.cycles += 1;
                    cursor += 1;
                }
                Some(prev) => {
                    let lanes = (patterns.len() - cursor).min(BLOCK_LANES);
                    self.simulate_chunk(prev, &patterns[cursor..cursor + lanes], &mut results);
                    self.prev = Some(patterns[cursor + lanes - 1]);
                    cursor += lanes;
                }
            }
        }
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hdpm_telemetry::record_duration_ns("sim.block_ns", ns);
        }
        results
    }

    /// Simulate one block: transitions `prev → next[0] → … → next[n−1]`,
    /// `n ≤ BLOCK_LANES`. Lane `j` computes the `j`-th transition.
    fn simulate_chunk(
        &mut self,
        prev: BitPattern,
        next: &[BitPattern],
        results: &mut Vec<CycleResult>,
    ) {
        let lanes = next.len();
        debug_assert!((1..=BLOCK_LANES).contains(&lanes));
        let inputs = self.input_nets.len();

        // Start-state planes: lane j = pattern j of the window
        // [prev, next[0], …, next[n−2]]; spare lanes replicate the last
        // pattern so their transitions are no-ops.
        let mut rows = [0u64; BLOCK_LANES];
        rows[0] = prev.bits();
        for (j, row) in rows.iter_mut().enumerate().skip(1) {
            *row = next[(j - 1).min(lanes - 1)].bits();
        }
        for (&net, plane) in self.input_nets.iter().zip(input_planes(&mut rows, inputs)) {
            self.planes[net as usize] = plane;
        }
        // One topological pass settles every start state at once.
        self.settle();
        self.stats.gate_evals += self.topo_gates.len() as u64;

        // End-state input planes: lane j = next[j], spare lanes
        // replicated. Their deltas are the block's input toggles.
        for (j, row) in rows.iter_mut().enumerate() {
            *row = next[j.min(lanes - 1)].bits();
        }
        let mut inputs_changed = false;
        for (&net, plane) in self.input_nets.iter().zip(input_planes(&mut rows, inputs)) {
            inputs_changed |= Self::commit(
                &mut self.planes,
                &mut self.counters,
                self.slices,
                net as usize,
                plane,
            );
        }

        match self.delay_model {
            // Quiet blocks (all lanes repeat their start pattern) are
            // already settled.
            DelayModel::Unit if inputs_changed => self.propagate_waves(),
            DelayModel::Unit => {}
            DelayModel::Zero => self.propagate_zero_delay(),
        }
        self.extract_lanes(lanes, results);
        self.stats.cycles += lanes as u64;
    }

    /// Unit-delay wave propagation over planes: a level-windowed dense
    /// sweep with the oracle's simultaneous-commit semantics, a whole
    /// block of lanes at a time.
    ///
    /// Wave `w` evaluates every gate at topological level ≥ `w` — a
    /// superset of the oracle's event front for that wave (a gate
    /// scheduled at wave `w` has an input that changed at wave `w−1`,
    /// which puts the gate at level ≥ `w`; every other windowed gate is
    /// settled and produces a zero delta, so it counts nothing). The
    /// window is evaluated deepest level first: a gate only reads nets at
    /// strictly lower levels, which a descending pass has not yet written,
    /// so every evaluation sees the pre-wave planes without double
    /// buffering. Each delta goes into the counters as it commits.
    /// Propagation stops at the first delta-free wave — from then on
    /// nothing can change — or when the window empties at the netlist's
    /// maximum depth.
    fn propagate_waves(&mut self) {
        for w in 1..self.level_prefix.len() {
            let window = self.level_prefix[w] as usize;
            self.stats.events_popped += window as u64;
            self.stats.gate_evals += window as u64;
            let mut toggled = false;
            for gate in &self.wave_gates[..window] {
                let new = gate.eval(&self.planes);
                toggled |= Self::commit(
                    &mut self.planes,
                    &mut self.counters,
                    self.slices,
                    gate.output as usize,
                    new,
                );
            }
            if !toggled {
                break;
            }
        }
    }

    /// Zero-delay propagation: one counted topological pass; only
    /// final-value transitions toggle.
    fn propagate_zero_delay(&mut self) {
        self.stats.gate_evals += self.topo_gates.len() as u64;
        for gate in &self.topo_gates {
            let new = gate.eval(&self.planes);
            Self::commit(
                &mut self.planes,
                &mut self.counters,
                self.slices,
                gate.output as usize,
                new,
            );
        }
    }

    /// Fold the block's counters into per-lane results in canonical
    /// order: nets ascending, `charge += count × energy` per lane — the
    /// same float operations, in the same order, as the oracle's
    /// per-cycle sum. Clears the counters for the next block.
    fn extract_lanes(&mut self, lanes: usize, results: &mut Vec<CycleResult>) {
        let mut charges = [0.0f64; BLOCK_LANES];
        let mut lane_toggles = [0u64; BLOCK_LANES];
        // Scatter buffer for multi-toggle lanes of one 64-lane word,
        // cleared lane-by-lane after use so it is not re-zeroed per net.
        let mut counts = [0u32; 64];
        let slices = self.slices;
        for (idx, counter) in self.counters.chunks_exact_mut(slices).enumerate() {
            let any = counter.iter().fold([0; LANE_WORDS], |acc, s| or(acc, *s));
            if is_zero(any) {
                continue; // quiet net this block
            }
            let energy = self.toggle_energy[idx];
            let mut total = 0u64;
            for (k, &active) in any.iter().enumerate() {
                if active == 0 {
                    continue;
                }
                let base = 64 * k;
                // `multi` marks lanes whose count has a bit above slice
                // 0, i.e. counts ≥ 2.
                let multi = counter[1..].iter().fold(0, |acc, s| acc | s[k]);
                // Fast path — lanes that toggled exactly once (the common
                // case away from glitchy cones): `1 × energy` is exactly
                // `energy`.
                let mut singles = counter[0][k] & !multi;
                while singles != 0 {
                    let j = base + singles.trailing_zeros() as usize;
                    singles &= singles - 1;
                    charges[j] += energy;
                    lane_toggles[j] += 1;
                    total += 1;
                }
                if multi == 0 {
                    continue;
                }
                // Remaining active lanes (counts ≥ 2): scatter the slice
                // bits into per-lane counts — work proportional to set
                // counter bits, not lanes × slices.
                for (s, slice) in counter.iter().enumerate() {
                    let mut w = slice[k] & multi;
                    while w != 0 {
                        counts[w.trailing_zeros() as usize] |= 1 << s;
                        w &= w - 1;
                    }
                }
                let mut remaining = multi;
                while remaining != 0 {
                    let bit = remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    let count = std::mem::take(&mut counts[bit]);
                    charges[base + bit] += f64::from(count) * energy;
                    lane_toggles[base + bit] += u64::from(count);
                    total += u64::from(count);
                }
            }
            counter.fill([0; LANE_WORDS]);
            self.toggle_counts[idx] += total;
        }
        for j in 0..lanes {
            self.stats.net_toggles += lane_toggles[j];
            self.stats.total_charge += charges[j];
            results.push(CycleResult {
                charge: charges[j],
                toggles: lane_toggles[j],
            });
        }
    }

    /// Cumulative work counters of this simulator instance.
    ///
    /// Counter semantics match [`Simulator::stats`] where they can:
    /// `cycles` counts applied patterns (the uncharged initializing
    /// pattern included, like the oracle) and `net_toggles` counts
    /// per-lane work, while `gate_evals`
    /// and `events_popped` count *plane* operations (each covering up to
    /// [`BLOCK_LANES`] lanes) — the ratio of the two engines'
    /// `gate_evals` is the measured evaluation parallelism.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Cumulative per-net toggle counts (diagnostics parity with
    /// [`Simulator::toggle_counts`]).
    pub fn toggle_counts(&self) -> &[u64] {
        &self.toggle_counts
    }

    /// Push the work done since the previous flush into the global
    /// telemetry registry, under the same counter names as the oracle.
    /// A no-op when telemetry is disabled.
    pub fn flush_telemetry(&mut self) {
        if !hdpm_telemetry::enabled() {
            return;
        }
        hdpm_telemetry::counter_add("sim.patterns", self.stats.cycles - self.flushed.cycles);
        hdpm_telemetry::counter_add(
            "sim.gate_evals",
            self.stats.gate_evals - self.flushed.gate_evals,
        );
        hdpm_telemetry::counter_add(
            "sim.events_popped",
            self.stats.events_popped - self.flushed.events_popped,
        );
        hdpm_telemetry::counter_add(
            "sim.net_toggles",
            self.stats.net_toggles - self.flushed.net_toggles,
        );
        hdpm_telemetry::gauge_add(
            "sim.total_charge",
            self.stats.total_charge - self.flushed.total_charge,
        );
        self.flushed = self.stats;
    }

    /// Reset all state to power-on (inputs low, counters cleared), so the
    /// next pattern initializes again without being charged.
    pub fn reset(&mut self) {
        self.planes.copy_from_slice(&self.reset_planes);
        self.settle();
        self.toggle_counts.iter_mut().for_each(|c| *c = 0);
        self.prev = None;
    }
}

impl Drop for BitplaneSimulator<'_> {
    /// Flush any unreported work so telemetry never under-counts.
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

/// Run a pattern sequence through both engines and panic on the first
/// divergence — the core differential-testing helper used by the
/// conformance suite and available to downstream tests.
///
/// Returns the per-transition results (from the bit-plane engine; the
/// assertion guarantees the oracle's are identical).
///
/// # Panics
///
/// Panics with a lane-precise diagnostic if any transition's
/// [`CycleResult`] differs between the two engines.
pub fn assert_backends_agree(
    netlist: &ValidatedNetlist,
    patterns: &[BitPattern],
    delay_model: DelayModel,
) -> Vec<CycleResult> {
    let mut oracle = Simulator::with_delay_model(netlist, delay_model);
    let mut bitplane = BitplaneSimulator::new(netlist, delay_model);
    let block = bitplane.apply_block(patterns);
    let mut reference = Vec::with_capacity(block.len());
    for &p in patterns {
        reference.push(oracle.apply(p));
    }
    // The first pattern initializes (no transition result from the block).
    let offset = patterns.len() - block.len();
    for (t, (ours, theirs)) in block.iter().zip(&reference[offset..]).enumerate() {
        assert_eq!(
            ours,
            theirs,
            "transition {t} of `{}` diverged between backends under {delay_model:?}: \
             bitplane {ours:?} vs event {theirs:?}",
            netlist.netlist().name()
        );
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::random_patterns;
    use hdpm_netlist::modules;

    /// Pattern counts around the block size `L`: the tiny runs, `L−1` and
    /// `L` (a ragged single block), `L+1` (one full block, the first
    /// pattern initializing), `L+2` (one lane into a second block), and
    /// `2L+1`, `3L+1` (whole multi-block runs).
    fn block_edges() -> [usize; 9] {
        let l = BLOCK_LANES;
        [1, 2, 3, l - 1, l, l + 1, l + 2, 2 * l + 1, 3 * l + 1]
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("event".parse::<SimBackend>().unwrap(), SimBackend::Event);
        assert_eq!(
            "Bitplane".parse::<SimBackend>().unwrap(),
            SimBackend::Bitplane
        );
        assert_eq!(
            "bit-parallel".parse::<SimBackend>().unwrap(),
            SimBackend::Bitplane
        );
        assert!("spice".parse::<SimBackend>().is_err());
        assert_eq!(SimBackend::Event.to_string(), "event");
        assert_eq!(SimBackend::default(), SimBackend::Bitplane);
    }

    #[test]
    fn matches_oracle_on_adder_unit_delay() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let patterns = random_patterns(8, 300, 11);
        assert_backends_agree(&adder, &patterns, DelayModel::Unit);
    }

    #[test]
    fn matches_oracle_on_glitchy_multiplier() {
        let mul = modules::csa_multiplier(5, 5).unwrap().validate().unwrap();
        let patterns = random_patterns(10, 200, 23);
        assert_backends_agree(&mul, &patterns, DelayModel::Unit);
        assert_backends_agree(&mul, &patterns, DelayModel::Zero);
    }

    #[test]
    fn ragged_tails_and_tiny_blocks_match() {
        let adder = modules::cla_adder(4).unwrap().validate().unwrap();
        for n in block_edges() {
            let patterns = random_patterns(8, n, n as u64);
            assert_backends_agree(&adder, &patterns, DelayModel::Unit);
            assert_backends_agree(&adder, &patterns, DelayModel::Zero);
        }
    }

    #[test]
    fn incremental_blocks_equal_one_big_block() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let patterns = random_patterns(8, 3 * BLOCK_LANES + 2, 5);
        let mut whole = BitplaneSimulator::new(&adder, DelayModel::Unit);
        let expected = whole.apply_block(&patterns);
        let mut chunked = BitplaneSimulator::new(&adder, DelayModel::Unit);
        let mut observed = Vec::new();
        for piece in patterns.chunks(BLOCK_LANES / 4 + 17) {
            observed.extend(chunked.apply_block(piece));
        }
        assert_eq!(observed, expected);
    }

    #[test]
    fn identical_patterns_draw_exactly_zero_charge() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let p = BitPattern::new(0b1010_0101, 8);
        let mut sim = BitplaneSimulator::new(&adder, DelayModel::Unit);
        let results = sim.apply_block(&[p; 80]);
        assert_eq!(results.len(), 79);
        for r in results {
            assert_eq!(r.charge, 0.0);
            assert_eq!(r.toggles, 0);
        }
    }

    #[test]
    fn reset_restores_power_on_state() {
        let adder = modules::ripple_adder(4).unwrap().validate().unwrap();
        let patterns = random_patterns(8, 100, 3);
        let mut sim = BitplaneSimulator::new(&adder, DelayModel::Unit);
        let first = sim.apply_block(&patterns);
        sim.reset();
        assert!(sim.toggle_counts().iter().all(|&c| c == 0));
        let second = sim.apply_block(&patterns);
        assert_eq!(first, second);
    }

    #[test]
    fn toggle_counts_match_the_oracle() {
        let mul = modules::csa_multiplier(4, 4).unwrap().validate().unwrap();
        let patterns = random_patterns(8, 150, 9);
        let mut oracle = Simulator::new(&mul);
        for &p in &patterns {
            oracle.apply(p);
        }
        let mut bitplane = BitplaneSimulator::new(&mul, DelayModel::Unit);
        bitplane.apply_block(&patterns);
        assert_eq!(bitplane.toggle_counts(), oracle.toggle_counts());
    }

    #[test]
    fn sequential_netlists_are_rejected() {
        let mac = modules::mac(4).unwrap().validate().unwrap();
        assert!(!BitplaneSimulator::supports(&mac));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BitplaneSimulator::new(&mac, DelayModel::Unit)
        }));
        assert!(result.is_err());
    }
}
