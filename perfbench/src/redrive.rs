//! The traced re-drive: one flow request replayed stage by stage through
//! the crates' public functions, each call wrapped in a wall-clock span.
//!
//! The program itself carries no tracing, so the layers are timed from
//! outside. The replay follows the fault-free path of the flows in
//! `prima-flow` (no repairs, no corner stage); the caller compares its
//! simulation counts, placement area, wirelength and detailed routing
//! with the untraced run's outcome to show both did the same work. Flow
//! work no public call reproduces — power-grid synthesis, the EM width
//! clamp, the electrical rule check and GDS geometry assembly — stays
//! inside `flow.other_s`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use prima_cache::EvalCache;
use prima_core::{
    reconcile, std_config_space, BinRanked, EvalLedger, GlobalRoute, NoFaults, Optimizer, Phase,
    PortConstraint,
};
use prima_flow::circuits::CircuitSpec;
use prima_flow::{schem_preflight, techlint_preflight, FlowOutcome};
use prima_geom::Point;
use prima_layout::{render, PrimitiveLayout};
use prima_pdk::Technology;
use prima_place::{Block, Net, PlacementProblem, Placer};
use prima_primitives::{evaluate_all, Bias, LayoutView, Library};
use prima_route::detail::{DetailRouter, DetailedResult};
use prima_route::{GlobalRouter, RoutingProblem, RoutingResult};
use prima_verify::lints::LintInputs;
use prima_verify::{check_flow, CellArtifact, FlowArtifacts};

/// Aspect-ratio bins of the optimized flow.
const N_BINS: usize = 3;

/// Wall time per layer of one replayed request, in seconds.
#[derive(Debug, Default)]
pub struct Spans {
    pub preflight: f64,
    pub selection: f64,
    pub tuning: f64,
    pub place: f64,
    pub groute: f64,
    pub ports: f64,
    pub droute: f64,
    pub verify: f64,
    pub gds: f64,
}

impl Spans {
    /// Sum of all spans.
    pub fn total(&self) -> f64 {
        self.preflight
            + self.selection
            + self.tuning
            + self.place
            + self.groute
            + self.ports
            + self.droute
            + self.verify
            + self.gds
    }
}

/// What one replay measured and produced.
#[derive(Debug, Default)]
pub struct Replay {
    pub spans: Spans,
    /// Wall time of the replay itself (spans plus glue, without the
    /// serial testbench timing).
    pub wall_s: f64,
    /// Simulations by phase: selection, tuning, ports.
    pub sims: [usize; 3],
    /// Blocks handed to the placer.
    pub blocks: usize,
    pub area_um2: f64,
    pub wirelength_um: f64,
    pub detailed: DetailedResult,
    /// Serial `evaluate_all` time per bin winner: (definition, ms).
    pub eval_ms: Vec<(String, f64)>,
    /// Gate or stream-out findings of the replay.
    pub problems: Vec<String>,
}

/// Seconds since `t`.
fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nets routed by hand (power), excluded from signal routing.
fn is_power_net(net: &str) -> bool {
    matches!(net, "vdd" | "vssn" | "vdd_ext")
}

/// FNV-1a of a port name: the flow's deterministic pin offset.
fn port_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-net parallel-route counts of a finished detailed routing.
fn widths_of(detailed: &DetailedResult) -> HashMap<String, u32> {
    let mut w = HashMap::new();
    for a in &detailed.assignments {
        w.entry(a.net.clone()).or_insert(a.tracks.len() as u32);
    }
    w
}

/// The signal-net global routes of a routing result.
fn global_routes(spec: &CircuitSpec, routing: &RoutingResult) -> HashMap<String, GlobalRoute> {
    spec.nets()
        .into_iter()
        .filter(|n| !is_power_net(n))
        .filter_map(|net| {
            routing.net(&net).map(|r| {
                let gr = GlobalRoute {
                    layer: r.dominant_layer(),
                    len_nm: r.total_len_nm(),
                    via_ends: 2,
                };
                (net, gr)
            })
        })
        .collect()
}

/// Replays the optimized flow's fault-free path for one request.
/// `reference` is the untraced outcome of the same request (corners off):
/// its detailed-routing widths stand in for the EM-clamped reconciliation
/// the replay cannot reach, and its GDS library is re-encoded for the
/// stream-out span.
#[allow(clippy::too_many_arguments)]
pub fn optimized(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
    cache: Option<Arc<EvalCache>>,
    reference: &FlowOutcome,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut eval_s = 0.0;
    let start = Instant::now();

    let t = Instant::now();
    for report in [
        techlint_preflight(tech, lib),
        schem_preflight(tech, lib, spec, Some(biases)),
    ] {
        if !report.is_passing() {
            out.problems
                .push(format!("preflight failed on {}", spec.name));
        }
    }
    out.spans.preflight = since(t);

    let mut opt = Optimizer::new(tech);
    if let Some(c) = cache {
        opt.set_cache(c);
    }
    let mut ledger = EvalLedger::new();

    // Algorithm 1 per distinct (definition, sizing, bias), as the flow
    // memoizes it: the bin winners, tuned.
    type Memo = (String, u64, Bias, Vec<(PrimitiveLayout, f64)>);
    let mut memo: Vec<Memo> = Vec::new();
    let mut options: HashMap<String, Vec<PrimitiveLayout>> = HashMap::new();
    for inst in &spec.instances {
        let def = lib
            .get(&inst.def)
            .ok_or(format!("unknown primitive {}", inst.def))?;
        if def.spec.devices.is_empty() {
            continue;
        }
        let bias = biases
            .get(&inst.name)
            .cloned()
            .unwrap_or_else(|| Bias::nominal(tech, &def.class));
        let active = match memo
            .iter()
            .find(|(d, f, b, _)| *d == inst.def && *f == inst.total_fins && *b == bias)
        {
            Some((.., active)) => active.clone(),
            None => {
                let configs = std_config_space(inst.total_fins);
                if configs.is_empty() {
                    continue;
                }
                let t = Instant::now();
                let bins: Vec<BinRanked> = opt
                    .select_bins(def, &bias, &configs, N_BINS, &NoFaults, &mut ledger)
                    .map_err(|e| format!("selection of {}: {e}", inst.name))?
                    .into_iter()
                    .filter(|b| !b.ranked.is_empty())
                    .collect();
                out.spans.selection += since(t);
                let mut active = Vec::new();
                for pick in bins.iter().filter_map(|b| b.ranked.first()) {
                    let t = Instant::now();
                    let tuned = match opt.tune(def, &bias, pick.layout.clone()) {
                        Ok(e) => (e.layout, e.cost),
                        Err(_) => (pick.layout.clone(), pick.cost),
                    };
                    out.spans.tuning += since(t);
                    // The primitive layer's unit cost: one full testbench
                    // evaluation of the bin winner, serially, outside the
                    // replay's own wall time.
                    let t = Instant::now();
                    let ok = evaluate_all(
                        tech,
                        def,
                        LayoutView::Layout(&tuned.0),
                        &bias,
                        &HashMap::new(),
                    )
                    .is_ok();
                    let dt = since(t);
                    eval_s += dt;
                    if ok {
                        out.eval_ms.push((inst.def.clone(), dt * 1e3));
                    }
                    active.push(tuned);
                }
                memo.push((inst.def.clone(), inst.total_fins, bias, active.clone()));
                active
            }
        };
        // The flow's quality guard on the placer's options.
        let best = active.iter().map(|a| a.1).fold(f64::INFINITY, f64::min);
        let mut keep: Vec<PrimitiveLayout> = active
            .iter()
            .filter(|a| a.1 <= (2.0 * best).max(best + 5.0))
            .map(|a| a.0.clone())
            .collect();
        if keep.is_empty() {
            keep = active.iter().map(|a| a.0.clone()).collect();
        }
        options.insert(inst.name.clone(), keep);
    }

    // Placement with variant choice, then global routing from per-port
    // pin offsets.
    let mut problem = PlacementProblem::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for inst in &spec.instances {
        let variants: Vec<(i64, i64)> = match options.get(&inst.name) {
            Some(layouts) if !layouts.is_empty() => layouts
                .iter()
                .map(|l| (l.bbox.width(), l.bbox.height()))
                .collect(),
            _ => vec![(1000, 1000)],
        };
        index_of.insert(
            inst.name.clone(),
            problem.add_block(Block::new(&inst.name, variants)),
        );
    }
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let mut pins: Vec<usize> = spec
            .taps(&net)
            .iter()
            .map(|(inst, _)| index_of[&inst.name])
            .collect();
        pins.sort_unstable();
        pins.dedup();
        if pins.len() >= 2 {
            problem.add_net(Net::new(&net, pins));
        }
    }
    for (a, b) in &spec.symmetry {
        if let (Some(&ia), Some(&ib)) = (index_of.get(a), index_of.get(b)) {
            problem.add_symmetry(ia, ib);
        }
    }
    out.blocks = problem.blocks().len();
    let t = Instant::now();
    let placement = Placer::new(seed)
        .place(&problem)
        .map_err(|e| format!("placement: {e}"))?;
    out.spans.place = since(t);
    out.area_um2 = placement.bbox(&problem).area() as f64 * 1e-6;

    let mut chosen: HashMap<String, PrimitiveLayout> = HashMap::new();
    for inst in &spec.instances {
        if let Some(layouts) = options.get(&inst.name).filter(|l| !l.is_empty()) {
            let v = placement.variants[index_of[&inst.name]].min(layouts.len() - 1);
            chosen.insert(inst.name.clone(), layouts[v].clone());
        }
    }
    let mut routing_problem = RoutingProblem::new();
    let mut net_pins: Vec<(String, Vec<Point>)> = Vec::new();
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let mut pins = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for (inst, port) in spec.taps(&net) {
            if seen.contains(&inst.name.as_str()) {
                continue;
            }
            seen.push(&inst.name);
            let r = placement.rect(&problem, index_of[&inst.name]);
            let c = r.center();
            let h = port_hash(port);
            let dx = (h % 1024) as i64 * (r.width() / 2) / 1024 - r.width() / 4;
            let dy = ((h / 1024) % 1024) as i64 * (r.height() / 2) / 1024 - r.height() / 4;
            pins.push(Point::new(c.x + dx, c.y + dy));
        }
        if pins.len() >= 2 {
            routing_problem.add_net(&net, pins.clone());
            net_pins.push((net, pins));
        }
    }
    let t = Instant::now();
    let routing = GlobalRouter::new(tech)
        .route(&routing_problem)
        .map_err(|e| format!("global routing: {e}"))?;
    out.spans.groute = since(t);
    out.wirelength_um = routing.total_wirelength() as f64 / 1000.0;

    // Algorithm 2: port constraints per primitive, reconciled per net.
    let net_routes = global_routes(spec, &routing);
    let t = Instant::now();
    let mut per_net: HashMap<String, Vec<PortConstraint>> = HashMap::new();
    for inst in &spec.instances {
        let Some(def) = lib.get(&inst.def).filter(|d| !d.spec.devices.is_empty()) else {
            continue;
        };
        let bias = biases
            .get(&inst.name)
            .cloned()
            .unwrap_or_else(|| Bias::nominal(tech, &def.class));
        let routes: HashMap<String, GlobalRoute> = inst
            .conn
            .iter()
            .filter_map(|(port, net)| net_routes.get(net).map(|gr| (port.clone(), *gr)))
            .collect();
        if routes.is_empty() {
            continue;
        }
        let cons = opt
            .port_constraints(def, &bias, chosen.get(&inst.name), inst.total_fins, &routes)
            .map_err(|e| format!("port constraints of {}: {e}", inst.name))?;
        for c in cons {
            if let Some(net) = inst.net_of(&c.net) {
                per_net
                    .entry(net.to_string())
                    .or_default()
                    .push(PortConstraint {
                        net: net.to_string(),
                        ..c
                    });
            }
        }
    }
    for constraints in per_net.values() {
        reconcile(constraints);
    }
    out.spans.ports = since(t);

    let widths = widths_of(&reference.detailed);
    let t = Instant::now();
    out.detailed = DetailRouter::new(tech)
        .assign_with_symmetry(routing.routes(), &widths, &spec.symmetric_nets)
        .map_err(|e| format!("detailed routing: {e}"))?;
    out.spans.droute = since(t);

    // Geometric gate over the replayed layout.
    let t = Instant::now();
    let outline_of: HashMap<String, prima_geom::Rect> = spec
        .instances
        .iter()
        .map(|i| (i.name.clone(), placement.rect(&problem, index_of[&i.name])))
        .collect();
    let mut artifacts = FlowArtifacts::new(&spec.name, tech);
    for inst in &spec.instances {
        let geometry = chosen.get(&inst.name).and_then(|layout| {
            lib.get(&inst.def)
                .and_then(|def| render(tech, &def.spec, &layout.config).ok())
        });
        artifacts.cells.push(CellArtifact {
            instance: inst.name.clone(),
            outline: outline_of[&inst.name],
            geometry,
        });
    }
    artifacts.pins = net_pins.clone();
    artifacts.routing = Some(&routing);
    artifacts.detailed = Some(&out.detailed);
    artifacts.expected_nets = net_pins.iter().map(|(n, _)| n.clone()).collect();
    artifacts.lints = LintInputs {
        metric_weights: Vec::new(),
        aspect_candidates: options
            .values()
            .flatten()
            .map(|l| l.aspect_ratio())
            .collect(),
        n_bins: N_BINS,
        ports: Vec::new(),
    };
    let verify = check_flow(&artifacts);
    out.spans.verify = since(t);
    if !verify.is_passing() {
        out.problems
            .push(format!("replayed verify gate failed on {}", spec.name));
    }

    // Stream-out encoding of the reference artifact.
    if let Some(gds) = &reference.gds {
        let t = Instant::now();
        let bytes = gds.library.to_bytes();
        out.spans.gds = since(t);
        if bytes.as_ref().ok() != Some(&gds.bytes) {
            out.problems
                .push(format!("GDS re-encode differs on {}", spec.name));
        }
    }

    out.sims = [
        opt.counter().count(Phase::Selection),
        opt.counter().count(Phase::Tuning),
        opt.counter().count(Phase::PortConstraints),
    ];
    out.wall_s = since(start) - eval_s;
    Ok(out)
}

/// Replays the conventional flow's flat placement and routing for one
/// request: one block per transistor, every signal net pinned onto every
/// connected device, single-wire detailed routing.
pub fn conventional(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    seed: u64,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let start = Instant::now();
    let mut problem = PlacementProblem::new();
    let mut block_nets: Vec<Vec<String>> = Vec::new();
    for inst in &spec.instances {
        let def = lib
            .get(&inst.def)
            .ok_or(format!("unknown primitive {}", inst.def))?;
        for d in &def.spec.devices {
            let fins = (inst.total_fins * d.ratio as u64).max(1);
            let area_nm2 =
                fins as f64 * tech.fin.fin_pitch as f64 * tech.fin.poly_pitch as f64 * 2.0;
            let side = (area_nm2.sqrt() as i64).max(200);
            problem.add_block(Block::new(
                &format!("{}::{}", inst.name, d.name),
                vec![(side, side)],
            ));
            block_nets.push(
                [&d.drain, &d.gate, &d.source]
                    .iter()
                    .filter_map(|port| inst.net_of(port).map(str::to_string))
                    .collect(),
            );
        }
    }
    let pins_of = |net: &str| -> Vec<usize> {
        block_nets
            .iter()
            .enumerate()
            .filter(|(_, nets)| nets.iter().any(|n| n == net))
            .map(|(i, _)| i)
            .collect()
    };
    for net in spec.nets() {
        let pins = pins_of(&net);
        if !is_power_net(&net) && pins.len() >= 2 {
            problem.add_net(Net::new(&net, pins));
        }
    }
    out.blocks = problem.blocks().len();
    let t = Instant::now();
    let placement = Placer::new(seed)
        .place(&problem)
        .map_err(|e| format!("placement: {e}"))?;
    out.spans.place = since(t);
    out.area_um2 = placement.bbox(&problem).area() as f64 * 1e-6;

    let mut routing_problem = RoutingProblem::new();
    for net in spec.nets() {
        let pins: Vec<Point> = pins_of(&net)
            .into_iter()
            .map(|i| placement.rect(&problem, i).center())
            .collect();
        if !is_power_net(&net) && pins.len() >= 2 {
            routing_problem.add_net(&net, pins);
        }
    }
    let t = Instant::now();
    let routing = GlobalRouter::new(tech)
        .route(&routing_problem)
        .map_err(|e| format!("global routing: {e}"))?;
    out.spans.groute = since(t);
    out.wirelength_um = routing.total_wirelength() as f64 / 1000.0;

    let t = Instant::now();
    out.detailed = DetailRouter::new(tech)
        .assign_with_symmetry(routing.routes(), &HashMap::new(), &spec.symmetric_nets)
        .map_err(|e| format!("detailed routing: {e}"))?;
    out.spans.droute = since(t);
    out.wall_s = since(start);
    Ok(out)
}
