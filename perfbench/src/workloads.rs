//! The three workloads. Each runs its timed phase untraced and records
//! the end-to-end metrics; a traced run also replays requests stage by
//! stage (see [`crate::redrive`]) and records the per-layer metrics.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prima_cache::{CachePolicy, EvalCache, Fingerprintable};
use prima_flow::{
    build_circuit, conventional_flow, optimized_flow_with, CornerOptions, CornerPolicy, FlowError,
    FlowOptions, FlowOutcome, GdsPolicy, VerifyPolicy,
};
use prima_gds::{diff, GdsLibrary};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library, TESTBENCH_VERSION};
use prima_serve::{BatchServer, ServeConfig, ServeRequest};
use prima_spice::analysis::Topology;

use crate::circuits::Ckt;
use crate::metrics::Report;
use crate::mix::{self, Kind, PRIMED_TENANT};
use crate::redrive::{self, Replay};
use crate::util::{cpu_seconds, median, percentile, Digest, Rng};

/// Placement seed of every flow request: fixed, so a run's outputs (and
/// digest) do not depend on `--seed`, which only orders and mixes them.
const PLACE_SEED: u64 = 42;
/// Monte-Carlo mismatch seed of the corner sweeps.
const MC_SEED: u64 = 42;
/// Corner set of the swept requests.
const CORNERS: [&str; 5] = ["tt", "ss", "ff", "sf", "fs"];
/// Monte-Carlo samples per instance in the swept requests.
const MC_SAMPLES: u32 = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 31;
/// Decks the workloads run on.
const DECKS: [Deck; 2] = [Deck::Finfet7, Deck::Sky130ish];
/// Open-loop arrival rate of `serve_mixed`: well under the mix's capacity
/// with 2 workers on a 2-core machine (a 30 s run uses about 11 of its 60
/// CPU-seconds and queue waits stay under 1 ms). An open loop near capacity
/// turns a slower machine into a growing backlog: at 4 requests/s a run on
/// a host whose CPU ran a third slower saw its median latency go from
/// 0.1 s to 0.9 s, so the rate keeps that headroom.
const SERVE_RATE: f64 = 3.0;
/// Serve worker threads.
const SERVE_WORKERS: usize = 2;

/// A process design kit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Deck {
    Finfet7,
    Sky130ish,
}

impl Deck {
    fn name(self) -> &'static str {
        match self {
            Deck::Finfet7 => "finfet7",
            Deck::Sky130ish => "sky130ish",
        }
    }
}

/// Everything set-up builds: both decks, the library and the bias
/// records of every circuit on both decks.
pub struct Ctx {
    finfet7: Technology,
    sky130ish: Technology,
    lib: Library,
    biases: HashMap<(Ckt, Deck), HashMap<String, Bias>>,
}

impl Ctx {
    fn tech(&self, deck: Deck) -> &Technology {
        match deck {
            Deck::Finfet7 => &self.finfet7,
            Deck::Sky130ish => &self.sky130ish,
        }
    }

    fn biases(&self, ckt: Ckt, deck: Deck) -> &HashMap<String, Bias> {
        &self.biases[&(ckt, deck)]
    }
}

/// Builds the context once.
fn build_ctx() -> Result<Ctx, FlowError> {
    let mut ctx = Ctx {
        finfet7: Technology::finfet7(),
        sky130ish: Technology::sky130ish(),
        lib: Library::standard(),
        biases: HashMap::new(),
    };
    for c in Ckt::ALL {
        for d in DECKS {
            let b = c.biases(ctx.tech(d), &ctx.lib)?;
            ctx.biases.insert((c, d), b);
        }
    }
    Ok(ctx)
}

/// Builds the context once untimed (page faults and lazy statics land
/// there), then [`SETUP_REPS`] times timed, and returns the last context
/// with the median build time in seconds.
fn setup() -> Result<(Ctx, f64), FlowError> {
    build_ctx()?;
    let mut times = Vec::new();
    let mut ctx = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        ctx = Some(build_ctx()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let ctx = ctx.ok_or(FlowError::Measurement {
        what: "no set-up ran".to_string(),
    })?;
    Ok((ctx, median(&times)))
}

/// The outputs a digest covers: area, wirelength, chosen configurations,
/// net wires and widths, and simulations per phase.
fn digest_outcome(d: &mut Digest, o: &FlowOutcome) {
    d.f64(o.area_um2);
    d.f64(o.wirelength_um);
    let layouts: BTreeMap<&String, String> = o
        .realization
        .layouts
        .iter()
        .map(|(k, l)| (k, format!("{:?}", l.config)))
        .collect();
    for (inst, cfg) in layouts {
        d.str(inst);
        d.str(&cfg);
    }
    let wires: BTreeMap<&String, String> = o
        .realization
        .net_wires
        .iter()
        .map(|(k, w)| (k, format!("{w:?}")))
        .collect();
    for (net, w) in wires {
        d.str(net);
        d.str(&w);
    }
    for a in &o.detailed.assignments {
        d.str(&a.net);
        d.u64(a.tracks.len() as u64);
    }
    let sims: BTreeMap<&&str, &usize> = o.sims.iter().collect();
    for (phase, n) in sims {
        d.str(phase);
        d.u64(*n as u64);
    }
}

/// Checks that every gate ran and passed, and that the GDS artifact
/// re-parses with zero differences.
fn check_outcome(o: &FlowOutcome, what: &str, r: &mut Report) {
    for (gate, report) in [
        ("techlint", &o.techlint),
        ("schem", &o.schem),
        ("verify", &o.verify),
        ("erc", &o.erc),
    ] {
        match report {
            Some(rep) if rep.is_passing() => {}
            Some(rep) => r.mismatch(format!(
                "{what}: {gate} gate has {} errors",
                rep.error_count()
            )),
            None => r.mismatch(format!("{what}: {gate} gate did not run")),
        }
    }
    match &o.gds {
        Some(art) => check_gds_bytes(&art.bytes, Some(&art.library), what, r),
        None => r.mismatch(format!("{what}: no GDS artifact")),
    }
}

/// Re-parses a GDS stream and diffs it against `reference` (or, without
/// one, checks that re-encoding the parse reproduces the bytes).
fn check_gds_bytes(bytes: &[u8], reference: Option<&GdsLibrary>, what: &str, r: &mut Report) {
    match GdsLibrary::from_bytes(bytes) {
        Ok(parsed) => {
            let same = match reference {
                Some(lib) => diff(&parsed, lib).is_empty(),
                None => parsed.to_bytes().ok().as_deref() == Some(bytes),
            };
            if !same {
                r.mismatch(format!("{what}: GDS round trip differs"));
            }
        }
        Err(e) => r.mismatch(format!("{what}: GDS does not re-parse: {e}")),
    }
}

/// Folds per-operation digests (keyed, so execution order does not
/// matter) into the workload digest.
fn fold_digests(per_op: &BTreeMap<String, String>) -> String {
    let mut d = Digest::default();
    for (k, v) in per_op {
        d.str(k);
        d.str(v);
    }
    d.hex()
}

/// Records one operation's digest; the same operation must digest the
/// same every time it runs.
fn record_digest(per_op: &mut BTreeMap<String, String>, key: String, hex: String, r: &mut Report) {
    if let Some(prev) = per_op.get(&key) {
        if *prev != hex {
            r.mismatch(format!("{key}: output differs between repetitions"));
        }
    } else {
        per_op.insert(key, hex);
    }
}

/// Whether one more request set, as long as the slowest so far, still
/// ends within the run's `seconds`. A run always measures at least one set.
fn another_set_fits(t0: Instant, set_walls: &[f64], seconds: f64) -> bool {
    let longest = set_walls.iter().copied().fold(0.0, f64::max);
    t0.elapsed().as_secs_f64() + longest <= seconds
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records the latency percentiles.
fn record_latency(r: &mut Report, lat_ms: &[f64]) {
    r.set("req_p50_ms", percentile(lat_ms, 50.0).unwrap_or(0.0));
    r.set("req_p95_ms", percentile(lat_ms, 95.0).unwrap_or(0.0));
}

/// The result of a workload: its report and digest.
pub struct Outcome {
    pub report: Report,
    pub digest: String,
}

fn cold_options(corners: bool) -> FlowOptions {
    FlowOptions {
        verify: VerifyPolicy::On,
        gds: GdsPolicy::On,
        corners: if corners {
            CornerPolicy::Sweep(CornerOptions {
                corners: Some(CORNERS.iter().map(|c| c.to_string()).collect()),
                mc_samples: MC_SAMPLES,
                mc_seed: MC_SEED,
                ..CornerOptions::default()
            })
        } else {
            CornerPolicy::Off
        },
        ..FlowOptions::default()
    }
}

/// Adds a replay's spans and counts to the layer metrics.
fn add_replay(r: &mut Report, rp: &Replay) {
    r.add("preflight.ms", rp.spans.preflight * 1e3);
    r.add("selection.s", rp.spans.selection);
    r.add("tuning.s", rp.spans.tuning);
    r.add("ports.s", rp.spans.ports);
    r.add("place.s", rp.spans.place);
    r.add("place.blocks", rp.blocks as f64);
    r.add("groute.ms", rp.spans.groute * 1e3);
    r.add("droute.ms", rp.spans.droute * 1e3);
    r.add("verify.ms", rp.spans.verify * 1e3);
    r.add("gds.ms", rp.spans.gds * 1e3);
    r.add("selection.sims", rp.sims[0] as f64);
    r.add("tuning.sims", rp.sims[1] as f64);
    r.add("ports.sims", rp.sims[2] as f64);
    for p in &rp.problems {
        r.mismatch(p.clone());
    }
}

/// Shows a replay did the untraced run's work: equal per-phase sims,
/// bit-equal area and wirelength, identical detailed routing.
fn check_replay(rp: &Replay, o: &FlowOutcome, what: &str, r: &mut Report) {
    let phase = |p: &str| o.sims.get(p).copied().unwrap_or(0);
    let untraced = [phase("selection"), phase("tuning"), phase("ports")];
    if rp.sims != untraced {
        r.mismatch(format!(
            "{what}: replay sims {:?} != untraced {untraced:?}",
            rp.sims
        ));
    }
    if rp.area_um2.to_bits() != o.area_um2.to_bits() {
        r.mismatch(format!(
            "{what}: replay area {} != {}",
            rp.area_um2, o.area_um2
        ));
    }
    if rp.wirelength_um.to_bits() != o.wirelength_um.to_bits() {
        r.mismatch(format!(
            "{what}: replay wirelength {} != {}",
            rp.wirelength_um, o.wirelength_um
        ));
    }
    if rp.detailed != o.detailed {
        r.mismatch(format!("{what}: replay detailed routing differs"));
    }
}

/// MNA dimension of a realization's assembled circuit.
fn mna_dim(ctx: &Ctx, ckt: Ckt, deck: Deck, o: &FlowOutcome) -> f64 {
    build_circuit(
        ctx.tech(deck),
        &ctx.lib,
        &ckt.spec().instances,
        &o.realization,
    )
    .map(|c| Topology::build(&c).dim() as f64)
    .unwrap_or(0.0)
}

/// Starts a traced run's layer metrics at zero, so every traced workload
/// prints the full catalogue: a layer the workload does not exercise
/// prints 0.
fn zero_layers(r: &mut Report) {
    for (name, _) in crate::metrics::per_layer() {
        r.set(&name, 0.0);
    }
}

/// The replayed requests of a traced run: their untraced wall time, the
/// replays' wall time and span coverage, and the serial testbench timings.
#[derive(Default)]
struct Coverage {
    untraced_s: f64,
    traced_s: f64,
    covered_s: f64,
    evals: Vec<(String, f64)>,
}

impl Coverage {
    /// Checks a replay against the untraced outcome of the same request
    /// and adds its spans to the layer metrics.
    fn take(
        &mut self,
        r: &mut Report,
        replay: Result<Replay, String>,
        reference: &FlowOutcome,
        untraced_s: f64,
        what: &str,
    ) {
        match replay {
            Ok(rp) => {
                check_replay(&rp, reference, what, r);
                add_replay(r, &rp);
                self.untraced_s += untraced_s;
                self.traced_s += rp.wall_s;
                self.covered_s += rp.spans.total();
                self.evals.extend(rp.eval_ms);
            }
            Err(e) => r.mismatch(format!("{what}: {e}")),
        }
    }

    /// Records `flow.other_s`, `trace.overhead_frac` and the per-definition
    /// testbench cost.
    fn record(&self, r: &mut Report) {
        r.set("flow.other_s", self.untraced_s - self.covered_s);
        r.set(
            "trace.overhead_frac",
            (self.traced_s - self.covered_s) / self.untraced_s.max(1e-9),
        );
        for def in crate::metrics::DEFS {
            let v: Vec<f64> = self
                .evals
                .iter()
                .filter(|(d, _)| d == def)
                .map(|e| e.1)
                .collect();
            let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
            r.set(&format!("testbench.eval_ms.{def}"), mean);
        }
    }
}

/// `cold_flow`: closed loop, one client, cold optimized flows of ota5t
/// and strongarm on both decks; the finfet7 requests carry a 5-corner
/// sweep with Monte-Carlo samples.
pub fn cold_flow(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, FlowError> {
    let mut ops = vec![
        (Ckt::Ota, Deck::Finfet7, true),
        (Ckt::StrongArm, Deck::Finfet7, true),
        (Ckt::Ota, Deck::Sky130ish, false),
        (Ckt::StrongArm, Deck::Sky130ish, false),
    ];
    let (ctx, setup_s) = setup()?;
    let mut r = Report::default();
    r.set("setup_s", setup_s);
    Rng::new(seed).shuffle(&mut ops);

    let mut per_op = BTreeMap::new();
    let mut outcomes: HashMap<(Ckt, Deck), (FlowOutcome, f64)> = HashMap::new();
    let mut set_walls = Vec::new();
    let mut lat = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    loop {
        let ts = Instant::now();
        for &(ckt, deck, corners) in &ops {
            let key = format!(
                "{}@{}{}",
                ckt.name(),
                deck.name(),
                if corners { "+corners" } else { "" }
            );
            let t = Instant::now();
            let res = optimized_flow_with(
                ctx.tech(deck),
                &ctx.lib,
                &ckt.spec(),
                ctx.biases(ckt, deck),
                PLACE_SEED,
                cold_options(corners),
            );
            let dt = t.elapsed();
            lat.push(ms(dt));
            r.attempted += 1;
            let mut d = Digest::default();
            match res {
                Ok(o) => {
                    check_outcome(&o, &key, &mut r);
                    digest_outcome(&mut d, &o);
                    outcomes.insert((ckt, deck), (o, dt.as_secs_f64()));
                }
                Err(e) => {
                    r.failed += 1;
                    d.str(&e.to_string());
                }
            }
            record_digest(&mut per_op, key, d.hex(), &mut r);
        }
        set_walls.push(ts.elapsed().as_secs_f64());
        if trace || !another_set_fits(t0, &set_walls, seconds) {
            break;
        }
    }
    r.set("cpu_s", (cpu_seconds() - cpu0) / set_walls.len() as f64);
    r.set("wall_s", median(&set_walls));
    record_latency(&mut r, &lat);

    if trace {
        zero_layers(&mut r);
        let mut cov = Coverage::default();
        for ckt in [Ckt::Ota, Ckt::StrongArm] {
            let deck = Deck::Finfet7;
            let what = format!("{}@{} replay", ckt.name(), deck.name());
            let (tech, biases) = (ctx.tech(deck), ctx.biases(ckt, deck));
            // The same request with corners off: the corner stage's cost
            // is the difference, and the replay reproduces this request.
            let t = Instant::now();
            let off = optimized_flow_with(
                tech,
                &ctx.lib,
                &ckt.spec(),
                biases,
                PLACE_SEED,
                cold_options(false),
            )?;
            let off_s = t.elapsed().as_secs_f64();
            if let Some((sweep, sweep_s)) = outcomes.get(&(ckt, deck)) {
                r.add("corners.s", sweep_s - off_s);
                r.add(
                    "corners.sims",
                    sweep.sims.get("corners").copied().unwrap_or(0) as f64,
                );
                r.add(
                    "gds.bytes",
                    sweep.gds.as_ref().map_or(0, |g| g.bytes.len()) as f64,
                );
                r.set(
                    &format!("spice.mna_dim.{}", ckt.name()),
                    mna_dim(&ctx, ckt, deck, sweep),
                );
            }
            let replay =
                redrive::optimized(tech, &ctx.lib, &ckt.spec(), biases, PLACE_SEED, None, &off);
            cov.take(&mut r, replay, &off, off_s, &what);
        }
        cov.record(&mut r);
    }
    Ok(Outcome {
        digest: fold_digests(&per_op),
        report: r,
    })
}

/// `baseline_signoff`: closed loop, one client; for every circuit on both
/// decks, the conventional flow and then the circuit measure of its
/// realization.
pub fn baseline_signoff(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, FlowError> {
    let (ctx, setup_s) = setup()?;
    let mut r = Report::default();
    r.set("setup_s", setup_s);
    let mut ops: Vec<(Ckt, Deck)> = Ckt::ALL
        .iter()
        .flat_map(|&c| [(c, Deck::Finfet7), (c, Deck::Sky130ish)])
        .collect();
    Rng::new(seed).shuffle(&mut ops);

    let mut per_op = BTreeMap::new();
    let mut flows: HashMap<(Ckt, Deck), (FlowOutcome, f64)> = HashMap::new();
    let mut measure_s: BTreeMap<Ckt, f64> = BTreeMap::new();
    let mut set_walls = Vec::new();
    let mut lat = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    loop {
        let ts = Instant::now();
        for &(ckt, deck) in &ops {
            let key = format!("{}@{}", ckt.name(), deck.name());
            let tech = ctx.tech(deck);
            let mut d = Digest::default();
            // One sign-off request: the flow, then the measure of its
            // realization; each call is one operation.
            let t = Instant::now();
            let flow = conventional_flow(tech, &ctx.lib, &ckt.spec(), PLACE_SEED);
            let dt = t.elapsed();
            r.attempted += 1;
            match flow {
                Ok(o) => {
                    digest_outcome(&mut d, &o);
                    let tm = Instant::now();
                    let m = ckt.measure(tech, &ctx.lib, &o.realization);
                    let mt = tm.elapsed();
                    r.attempted += 1;
                    *measure_s.entry(ckt).or_insert(0.0) += mt.as_secs_f64();
                    match m {
                        Ok(metrics) => d.str(&metrics),
                        Err(e) => {
                            r.failed += 1;
                            d.str(&e.to_string());
                        }
                    }
                    flows.insert((ckt, deck), (o, dt.as_secs_f64()));
                }
                Err(e) => {
                    r.failed += 1;
                    d.str(&e.to_string());
                }
            }
            lat.push(ms(t.elapsed()));
            record_digest(&mut per_op, key, d.hex(), &mut r);
        }
        set_walls.push(ts.elapsed().as_secs_f64());
        if trace || !another_set_fits(t0, &set_walls, seconds) {
            break;
        }
    }
    r.set("cpu_s", (cpu_seconds() - cpu0) / set_walls.len() as f64);
    r.set("wall_s", median(&set_walls));
    record_latency(&mut r, &lat);

    if trace {
        zero_layers(&mut r);
        for c in Ckt::ALL {
            r.set(
                &format!("spice.measure_s.{}", c.name()),
                measure_s.get(&c).copied().unwrap_or(0.0),
            );
        }
        let mut cov = Coverage::default();
        for ckt in Ckt::ALL {
            let deck = Deck::Finfet7;
            let what = format!("{}@{} replay", ckt.name(), deck.name());
            let Some((o, flow_s)) = flows.get(&(ckt, deck)) else {
                continue;
            };
            r.set(
                &format!("spice.mna_dim.{}", ckt.name()),
                mna_dim(&ctx, ckt, deck, o),
            );
            let replay = redrive::conventional(ctx.tech(deck), &ctx.lib, &ckt.spec(), PLACE_SEED);
            cov.take(&mut r, replay, o, *flow_s, &what);
        }
        cov.record(&mut r);
    }
    Ok(Outcome {
        digest: fold_digests(&per_op),
        report: r,
    })
}

/// Whether a resolved request counts as failed.
fn request_failed(rep: &prima_flow::RequestReport) -> bool {
    use prima_flow::ServeOutcome;
    matches!(
        rep.outcome,
        ServeOutcome::Rejected | ServeOutcome::DeadlineExceeded | ServeOutcome::Failed
    ) || rep.detail.starts_with("shed")
}

/// `serve_mixed`: open loop at [`SERVE_RATE`] against a 2-worker server;
/// mostly warm repeats on a primed tenant plus cold requests from fresh
/// tenants.
pub fn serve_mixed(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, FlowError> {
    const SERVED: [Ckt; 3] = [Ckt::CsAmp, Ckt::Ota, Ckt::Vco];
    let deck = Deck::Finfet7;
    let (ctx, ctx_s) = setup()?;
    let mut r = Report::default();
    let server = BatchServer::new(
        ctx.tech(deck).clone(),
        ctx.lib.clone(),
        ServeConfig {
            workers: SERVE_WORKERS,
            queue_capacity: 1024,
            verify: VerifyPolicy::On,
            gds: true,
            ..ServeConfig::default()
        },
    );
    let request = |tenant: &str, c: Ckt| {
        let mut req = ServeRequest::new(tenant, c.spec(), ctx.biases(c, deck).clone());
        req.seed = PLACE_SEED;
        req
    };

    // Prime the tenant cold; its layouts are the reference every later
    // request must reproduce bit for bit.
    let t = Instant::now();
    let mut reference: HashMap<Ckt, Vec<u8>> = HashMap::new();
    let mut digest = Digest::default();
    for c in SERVED {
        let rep = server
            .submit_blocking(request(PRIMED_TENANT, c))
            .map_err(|e| FlowError::Measurement {
                what: format!("priming {}: {e:?}", c.name()),
            })?
            .wait();
        match rep.gds {
            Some(bytes) if !request_failed(&rep) => {
                check_gds_bytes(&bytes, None, &format!("priming {}", c.name()), &mut r);
                digest.str(c.name());
                digest.blob(&bytes);
                reference.insert(c, bytes);
            }
            _ => {
                return Err(FlowError::Measurement {
                    what: format!("priming {} failed: {}", c.name(), rep.detail),
                })
            }
        }
    }
    r.set("setup_s", ctx_s + t.elapsed().as_secs_f64());

    let sched = mix::schedule(seed, SERVE_RATE, seconds);
    let requests: Vec<ServeRequest> = sched
        .iter()
        .map(|a| match a.kind {
            Kind::Warm(c) | Kind::Cold(c) => request(&a.tenant, c),
        })
        .collect();
    let mut pending = Vec::new();
    let mut gen_lag_ms: f64 = 0.0;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for (a, req) in sched.iter().zip(requests) {
        let due = t0 + a.due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let submitted = Instant::now();
        gen_lag_ms = gen_lag_ms.max(ms(submitted - due));
        r.attempted += 1;
        match server.submit(req) {
            Ok(ticket) => pending.push((a, submitted - due, ticket)),
            Err(_) => r.failed += 1,
        }
    }
    let mut lat = Vec::new();
    let mut reports = Vec::new();
    let mut end = Duration::ZERO;
    for (a, lag, ticket) in pending {
        let rep = ticket.wait();
        let latency = lag + Duration::from_secs_f64((rep.queue_ms + rep.service_ms) / 1e3);
        end = end.max(a.due + latency);
        lat.push(ms(latency));
        let c = match a.kind {
            Kind::Warm(c) | Kind::Cold(c) => c,
        };
        if request_failed(&rep) {
            r.failed += 1;
        } else if rep.gds.as_ref() != reference.get(&c) {
            r.mismatch(format!(
                "request {} ({} on {}) differs from the cold priming run",
                rep.request_id,
                c.name(),
                a.tenant
            ));
        }
        reports.push(rep);
    }
    r.set("cpu_s", cpu_seconds() - cpu0);
    r.set("wall_s", end.as_secs_f64());
    record_latency(&mut r, &lat);
    let by_ns = server.cache_stats_by_namespace();
    let served = server.finish();

    if trace {
        zero_layers(&mut r);
        let ran: Vec<&prima_flow::RequestReport> =
            reports.iter().filter(|p| p.attempts > 0).collect();
        let queue: Vec<f64> = ran.iter().map(|p| p.queue_ms).collect();
        let service: Vec<f64> = ran.iter().map(|p| p.service_ms).collect();
        r.set(
            "serve.queue_ms_p50",
            percentile(&queue, 50.0).unwrap_or(0.0),
        );
        r.set(
            "serve.queue_ms_p95",
            percentile(&queue, 95.0).unwrap_or(0.0),
        );
        r.set(
            "serve.service_ms_p50",
            percentile(&service, 50.0).unwrap_or(0.0),
        );
        r.set(
            "serve.service_ms_p95",
            percentile(&service, 95.0).unwrap_or(0.0),
        );
        r.set(
            "serve.attempts_per_req",
            ran.iter().map(|p| p.attempts as f64).sum::<f64>() / ran.len().max(1) as f64,
        );
        r.set("serve.shed", served.shed as f64);
        r.set("serve.gen_lag_ms_max", gen_lag_ms);
        let cache = &served.cache;
        r.set("cache.hits", cache.hits as f64);
        r.set("cache.misses", cache.misses as f64);
        r.set("cache.hit_rate", cache.hit_rate());
        r.set("cache.evictions", cache.evictions as f64);
        r.set(
            "cache.bytes",
            by_ns.iter().map(|(_, s)| s.bytes).sum::<u64>() as f64,
        );

        // Replay one warm request per circuit against a cache of our own,
        // primed by an untraced cold run of the same request.
        let tech = ctx.tech(deck);
        let mut cov = Coverage::default();
        for c in SERVED {
            let what = format!("{} warm replay", c.name());
            let store: Arc<EvalCache> = EvalCache::resolve(
                CachePolicy::MemoryOnly,
                tech.fingerprint(),
                TESTBENCH_VERSION,
            );
            let opts = FlowOptions {
                cache: CachePolicy::Shared(store.clone()),
                ..cold_options(false)
            };
            let biases = ctx.biases(c, deck);
            optimized_flow_with(tech, &ctx.lib, &c.spec(), biases, PLACE_SEED, opts.clone())?;
            let t = Instant::now();
            let warm = optimized_flow_with(tech, &ctx.lib, &c.spec(), biases, PLACE_SEED, opts)?;
            let warm_s = t.elapsed().as_secs_f64();
            r.add(
                "gds.bytes",
                warm.gds.as_ref().map_or(0, |g| g.bytes.len()) as f64,
            );
            r.set(
                &format!("spice.mna_dim.{}", c.name()),
                mna_dim(&ctx, c, deck, &warm),
            );
            let replay = redrive::optimized(
                tech,
                &ctx.lib,
                &c.spec(),
                biases,
                PLACE_SEED,
                Some(store),
                &warm,
            );
            cov.take(&mut r, replay, &warm, warm_s, &what);
        }
        cov.record(&mut r);
    }
    Ok(Outcome {
        digest: digest.hex(),
        report: r,
    })
}
