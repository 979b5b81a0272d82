//! The traced pass: time the public function of each layer on the run's
//! own inputs, recording one span per call (bounded) under a root span
//! per request, so each end-to-end p50 can be split into layer p50s
//! plus a residual.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hdpm_core::persist::{self, EnvelopeMeta};
use hdpm_core::{
    analytic_model, characterize_sharded, CacheSource, Characterization, Fidelity, ModelKey,
    ParameterizableModel, PowerEngine, Prototype,
};
use hdpm_server::{protocol, wire};
use hdpm_sim::{random_patterns, BitplaneSimulator, DelayModel};

use crate::harness::engine_options;
use crate::inputs::{Key, Plan, CYCLES};
use crate::reference::input_distribution;
use crate::stats::median;

/// Rounds over the warm set; each round times every key once.
const WARM_ROUNDS: usize = 200;
/// Calls per timed batch for the sub-microsecond layers.
const BATCH: usize = 32;
/// Rounds over the cold ladder.
const COLD_ROUNDS: usize = 3;
/// Transitions per simulator timing.
const SIM_TRANSITIONS: usize = 4096;
/// Spans kept in memory; later ones are counted, not stored.
const SPAN_CAP: usize = 5_000;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Spans of one request share this id.
    pub request: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store, written out when the run ends.
pub struct Spans {
    origin: Instant,
    next_id: u64,
    pub kept: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            next_id: 1,
            kept: Vec::new(),
            dropped: 0,
        }
    }

    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn push(
        &mut self,
        id: u64,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.kept.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.kept.push(Span {
            id,
            request,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Time `f` as a child of `root` in `request`; returns its result and
    /// duration in nanoseconds.
    fn child<R>(
        &mut self,
        request: u64,
        root: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        let id = self.id();
        self.push(id, request, Some(root), name, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    /// Time a batch of `BATCH` calls as one span; returns ns per call.
    fn batch<R>(
        &mut self,
        request: u64,
        root: u64,
        name: &'static str,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        self.child(request, root, name, || {
            for _ in 0..BATCH {
                black_box(f());
            }
        })
        .1 / BATCH as f64
    }
}

/// Per-layer p50s, in the units their metric names carry.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub v1_decode_ns: f64,
    pub v1_handle_us: f64,
    pub v1_render_ns: f64,
    pub v2_codec_ns: f64,
    pub fetch_hit_ns: f64,
    pub estimate_ns: f64,
    pub estimate_distribution_ns: f64,
    pub build_us: f64,
    pub input_dist_us: f64,
    pub analytic_us: f64,
    pub regress_fit_us: f64,
    pub characterize_ms: f64,
    pub ns_per_transition: f64,
    pub sim_share: f64,
    pub save_ms: f64,
    pub load_us: f64,
    pub artifact_kib: f64,
}

/// The v1 line the typed client sends for `key` (server-default floor).
fn v1_line(key: &Key) -> String {
    let (m1, m2) = key.spec.width.operand_widths();
    let width = match key.spec.width {
        hdpm_netlist::ModuleWidth::Uniform(_) => format!("\"width\":{m1}"),
        hdpm_netlist::ModuleWidth::Rect(..) => format!("\"width\":{m1},\"width2\":{m2}"),
    };
    format!(
        "{{\"op\":\"estimate\",\"module\":\"{}\",{width},\"data\":\"{}\",\"cycles\":{CYCLES},\"seed\":{}}}",
        key.spec.kind,
        key.data.name(),
        key.seed
    )
}

fn p50(samples: &[f64]) -> Result<f64, String> {
    median(samples).ok_or_else(|| "layer pass produced no samples".to_string())
}

/// Time every layer on the plan's inputs. `scratch` holds the artifacts
/// the persist timings write.
pub fn measure(plan: &Plan, scratch: &Path, spans: &mut Spans) -> Result<Layers, String> {
    let mut layers = Layers::default();
    warm_layers(plan, spans, &mut layers)?;
    cold_layers(plan, scratch, spans, &mut layers)?;
    Ok(layers)
}

fn warm_layers(plan: &Plan, spans: &mut Spans, layers: &mut Layers) -> Result<(), String> {
    let engine = Arc::new(PowerEngine::new(engine_options(None)));
    let specs: Vec<_> = plan.warm.iter().map(|k| k.spec).collect();
    engine
        .warm(&specs, 0)
        .map_err(|e| format!("warm engine: {e}"))?;
    struct Prepared {
        line: String,
        dist: hdpm_datamodel::HdDistribution,
        frame: Vec<u8>,
        estimate: hdpm_core::Estimate,
    }
    let prepared: Vec<Prepared> = plan
        .warm
        .iter()
        .map(|key| {
            let dist = input_distribution(key);
            let estimate = engine
                .estimate(key.spec, &dist)
                .map_err(|e| format!("{}: {e}", key.spec))?;
            let payload = wire::encode_estimate_request(&wire::EstimateParams {
                spec: key.spec,
                data: key.data,
                cycles: CYCLES,
                seed: key.seed,
                floor: None,
            });
            let mut frame = Vec::new();
            wire::encode_frame(&mut frame, 1, wire::Opcode::Estimate as u8, 0, &payload);
            let line = v1_line(key);
            // Fill this thread's distribution memo, as a warm server
            // worker's is.
            let request = protocol::decode(line.as_bytes())
                .map_err(|(_, m)| m)?
                .ok_or("blank v1 line")?;
            protocol::handle(&engine, &request).map_err(|(_, m)| m)?;
            Ok(Prepared {
                line,
                dist,
                frame,
                estimate,
            })
        })
        .collect::<Result<_, String>>()?;

    let (mut decode, mut handle, mut render) = (Vec::new(), Vec::new(), Vec::new());
    let (mut codec, mut fetch, mut estimate, mut model) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reply = Vec::with_capacity(wire::HEADER_LEN + wire::ESTIMATE_REPLY_LEN);
    for _ in 0..WARM_ROUNDS {
        for (key, p) in plan.warm.iter().zip(&prepared) {
            let request_id = spans.id();
            let root = spans.id();
            let start = Instant::now();
            let (request, ns) = spans.child(request_id, root, "server.protocol.v1_decode", || {
                protocol::decode(p.line.as_bytes())
            });
            decode.push(ns);
            let request = request.map_err(|(_, m)| m)?.ok_or("blank v1 line")?;
            let (value, ns) = spans.child(request_id, root, "server.protocol.v1_handle", || {
                protocol::handle(&engine, &request)
            });
            handle.push(ns / 1e3);
            let value = value.map_err(|(_, m)| m)?;
            let (_, ns) = spans.child(request_id, root, "server.protocol.v1_render", || {
                protocol::render(&value)
            });
            render.push(ns);
            codec.push(spans.batch(request_id, root, "server.wire.v2_codec", || {
                let header = wire::decode_header(
                    p.frame[..wire::HEADER_LEN]
                        .try_into()
                        .expect("header bytes"),
                );
                let params = wire::decode_estimate_request(&p.frame[wire::HEADER_LEN..]);
                let payload = wire::encode_estimate_reply(
                    &p.estimate,
                    wire::source_code(CacheSource::Memory),
                );
                reply.clear();
                wire::encode_frame(&mut reply, header.id, wire::STATUS_OK, 0, &payload);
                (params.is_ok(), reply.len())
            }));
            fetch.push(spans.batch(request_id, root, "core.engine.fetch_hit", || {
                engine.fetch(key.spec).is_ok()
            }));
            estimate.push(spans.batch(request_id, root, "core.engine.estimate", || {
                engine.estimate(key.spec, &p.dist).is_ok()
            }));
            let characterization = engine.model(key.spec).map_err(|e| e.to_string())?;
            model.push(
                spans.batch(request_id, root, "core.model.estimate_distribution", || {
                    characterization
                        .model
                        .estimate_distribution(&p.dist)
                        .is_ok()
                }),
            );
            spans.push(
                root,
                request_id,
                None,
                "layers.warm_request",
                start,
                Instant::now(),
            );
        }
    }
    layers.v1_decode_ns = p50(&decode)?;
    layers.v1_handle_us = p50(&handle)?;
    layers.v1_render_ns = p50(&render)?;
    layers.v2_codec_ns = p50(&codec)?;
    layers.fetch_hit_ns = p50(&fetch)?;
    layers.estimate_ns = p50(&estimate)?;
    layers.estimate_distribution_ns = p50(&model)?;
    Ok(())
}

fn cold_layers(
    plan: &Plan,
    scratch: &Path,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let options = engine_options(None);
    let sharding = options.sharding.expect("default engine shards");
    let threads = sharding.effective_threads() as f64;
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut samples: [Vec<f64>; 10] = Default::default();
    let [build, dist, analytic, fit, characterize, per_transition, share, save, load, kib] =
        &mut samples;
    for round in 0..COLD_ROUNDS {
        let mut siblings: Vec<Prototype> = Vec::new();
        for (index, rung) in plan.ladder.iter().enumerate() {
            let spec = rung.key.spec;
            let request_id = spans.id();
            let root = spans.id();
            let start = Instant::now();
            let (netlist, ns) = spans.child(request_id, root, "netlist.build", || {
                spec.build().and_then(|n| n.validate())
            });
            build.push(ns / 1e3);
            let netlist = netlist.map_err(|e| format!("{spec}: {e}"))?;
            let (_, ns) = spans.child(request_id, root, "datamodel.input_dist", || {
                input_distribution(&rung.key)
            });
            dist.push(ns / 1e3);
            if rung.first_tier == Fidelity::Analytic {
                let (_, ns) = spans.child(request_id, root, "core.fidelity.analytic", || {
                    analytic_model(spec).is_ok()
                });
                analytic.push(ns / 1e3);
            } else {
                let family: Vec<Prototype> = siblings
                    .iter()
                    .filter(|p| p.spec.kind == spec.kind)
                    .cloned()
                    .collect();
                let (fitted, ns) = spans.child(request_id, root, "core.regress.fit", || {
                    ParameterizableModel::fit(&family)
                });
                fitted.map_err(|e| format!("{spec}: sibling fit: {e}"))?;
                fit.push(ns / 1e3);
            }
            let (c, ns) = spans.child(request_id, root, "core.characterize", || {
                characterize_sharded(&netlist, &options.config, &sharding)
            });
            let c: Characterization = c.map_err(|e| format!("{spec}: {e}"))?;
            characterize.push(ns / 1e6);
            let characterize_ns = ns;

            let mut sim = BitplaneSimulator::new(&netlist, DelayModel::Unit);
            let patterns = random_patterns(
                netlist.netlist().input_bit_count(),
                SIM_TRANSITIONS + 1,
                rung.key.seed ^ round as u64,
            );
            let (cycles, ns) = spans.child(request_id, root, "sim.bitplane.apply_block", || {
                sim.apply_block(&patterns)
            });
            let ns_per = ns / cycles.len().max(1) as f64;
            per_transition.push(ns_per);
            share.push(c.transitions as f64 * ns_per / threads / characterize_ns);

            let key = ModelKey::new(spec, &options.config, sharding.shards);
            let meta = EnvelopeMeta::for_key(&key);
            let path = scratch.join(format!("{index}.json"));
            let (saved, ns) = spans.child(request_id, root, "core.persist.save", || {
                persist::save_with_meta(&c, &meta, &path)
            });
            saved.map_err(|e| format!("{spec}: save: {e}"))?;
            save.push(ns / 1e6);
            let (loaded, ns) = spans.child(request_id, root, "core.persist.load", || {
                persist::load_classified::<Characterization>(&path, &meta)
            });
            let (loaded, _) = loaded.map_err(|e| format!("{spec}: load: {e}"))?;
            if loaded != c {
                return Err(format!("{spec}: artifact does not round-trip"));
            }
            load.push(ns / 1e3);
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            kib.push(bytes as f64 / 1024.0);
            spans.push(
                root,
                request_id,
                None,
                "layers.cold_rung",
                start,
                Instant::now(),
            );
            siblings.push(Prototype {
                spec,
                model: c.model,
            });
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    layers.build_us = p50(build)?;
    layers.input_dist_us = p50(dist)?;
    layers.analytic_us = p50(analytic)?;
    layers.regress_fit_us = p50(fit)?;
    layers.characterize_ms = p50(characterize)?;
    layers.ns_per_transition = p50(per_transition)?;
    layers.sim_share = p50(share)?;
    layers.save_ms = p50(save)?;
    layers.load_us = p50(load)?;
    layers.artifact_kib = p50(kib)?;
    Ok(())
}
