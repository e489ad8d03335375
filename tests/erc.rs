//! Electrical rule check (prima-erc) integration tests.
//!
//! Mirrors the structure of the geometric gate's tests (`drc_lvs.rs`):
//! the flows must come out *clean* on the paper's four benchmark circuits
//! — the Algorithm 2 clamp reconciles every routed net at or above its
//! EM-safe width, so a clean report is a property of the flow, not luck —
//! and deliberately seeded violations of every electrical rule class must
//! be *caught* under the expected rule id with the expected magnitudes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use prima_erc::{
    check_erc, CentroidGroup, ErcArtifacts, NetCurrent, Severity, SupplyTap, SymmetryPair,
};
use prima_flow::circuits::{CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{conventional_flow, optimized_flow_with, FlowOptions};
use prima_geom::{Point, Rect};
use prima_pdk::Technology;
use prima_primitives::Library;
use prima_route::{NetRoute, RoutingResult, Segment};

fn env() -> (Technology, Library) {
    (Technology::finfet7(), Library::standard())
}

/// A single-segment route on one layer, for seeding EM fixtures.
fn one_segment_route(net: &str, layer: usize) -> RoutingResult {
    RoutingResult::from_routes(vec![NetRoute {
        net: net.to_string(),
        segments: vec![Segment {
            layer,
            from: Point::new(0, 0),
            to: Point::new(0, 2_000),
        }],
        via_count: 2,
    }])
}

// ---------------------------------------------------------------------
// Clean flows: the ERC gate runs inside every debug-build flow right
// after the geometric gate and must pass on all four benchmark circuits.
// ---------------------------------------------------------------------

#[test]
fn optimized_flows_pass_erc_on_all_four_circuits() {
    let (tech, lib) = env();
    let vco = RoVco::small();
    let cases = vec![
        ("cs_amp", CsAmp::spec(), CsAmp::biases(&tech, &lib).unwrap()),
        (
            "ota5t",
            FiveTOta::spec(),
            FiveTOta::biases(&tech, &lib).unwrap(),
        ),
        (
            "strongarm",
            StrongArm::spec(),
            StrongArm::biases(&tech, &lib).unwrap(),
        ),
        ("vco", vco.spec(), vco.biases(&tech, &lib).unwrap()),
    ];
    for (name, spec, biases) in cases {
        let out =
            optimized_flow_with(&tech, &lib, &spec, &biases, 11, FlowOptions::default()).unwrap();
        let report = out.erc.expect("erc gate is on in debug builds");
        assert!(report.is_clean(), "{name}: {}", report.summary());
        assert!(report.nets_checked > 0, "{name}: no nets were checked");
        for check in ["erc.em", "erc.ir", "erc.symmetry", "erc.connect"] {
            assert!(
                report.checks_run.iter().any(|c| c == check),
                "{name}: {check} missing from {:?}",
                report.checks_run
            );
        }
    }
}

#[test]
fn conventional_flow_passes_erc() {
    let (tech, lib) = env();
    let out = conventional_flow(&tech, &lib, &CsAmp::spec(), 7).unwrap();
    let report = out.erc.expect("erc gate is on in debug builds");
    assert!(report.is_clean(), "{}", report.summary());
    // The baseline has no operating-point data, so the EM pass cannot run
    // — but the hygiene checks still do.
    assert!(report.checks_run.iter().any(|c| c == "erc.connect"));
}

/// Algorithm 2 closure: the OTA tail net `n3` carries the full 700 µA
/// tail current, and the clamp must have widened it to at least the
/// EM-safe route count of whatever layer each of its spans landed on.
#[test]
fn em_clamp_widens_the_ota_tail_net() {
    let (tech, lib) = env();
    let spec = FiveTOta::spec();
    let biases = FiveTOta::biases(&tech, &lib).unwrap();
    let out = optimized_flow_with(&tech, &lib, &spec, &biases, 11, FlowOptions::default()).unwrap();
    let spans: Vec<_> = out
        .detailed
        .assignments
        .iter()
        .filter(|a| a.net == "n3")
        .collect();
    assert!(!spans.is_empty(), "tail net n3 was not detail-routed");
    for a in spans {
        let needed = tech.em_required_routes(a.layer, 700e-6);
        assert!(
            a.tracks.len() as u32 >= needed,
            "n3 span on M{} uses {} track(s); 700 µA needs {}",
            a.layer,
            a.tracks.len(),
            needed
        );
    }
}

// ---------------------------------------------------------------------
// Seeded violations: each fixture plants exactly one electrical defect
// and the checker must name it — with the right magnitudes — through the
// same `check_erc` entry point the flows call.
// ---------------------------------------------------------------------

/// A 200 µA net routed as a single M1 wire, whose EM limit is
/// 8 mA/µm × 18 nm = 144 µA.
#[test]
fn seeded_overloaded_wire_trips_em_width() {
    let tech = Technology::finfet7();
    let routing = one_segment_route("sig", 1);
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.routing = Some(&routing);
    art.net_currents = vec![NetCurrent {
        net: "sig".into(),
        worst_a: 200e-6,
        taps: Vec::new(),
    }];
    let report = check_erc(&art);
    // The tapless fixture also gets a degraded EM.FALLBACK note (current
    // propagation has no budgets to split); only the width error gates.
    assert_eq!(report.error_count(), 1, "{}", report.summary());
    assert!(report.has_rule("EM.FALLBACK"), "{}", report.summary());
    let v = report
        .violations
        .iter()
        .find(|v| v.severity == Severity::Error)
        .unwrap();
    assert_eq!(v.rule_id, "EM.WIDTH");
    assert_eq!(v.layer.as_deref(), Some("M1"));
    assert_eq!(v.found, Some(200));
    assert_eq!(v.required, Some(144));
}

/// A 300 µA net routed on M6: the wire itself is fine (360 µA limit) but
/// the access stack funnels the whole current through one V1 cut rated
/// for 250 µA. Only the via rule may fire.
#[test]
fn seeded_overloaded_via_stack_trips_em_via() {
    let tech = Technology::finfet7();
    let routing = one_segment_route("sig", 6);
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.routing = Some(&routing);
    art.net_currents = vec![NetCurrent {
        net: "sig".into(),
        worst_a: 300e-6,
        taps: Vec::new(),
    }];
    let report = check_erc(&art);
    assert!(!report.has_rule("EM.WIDTH"), "{}", report.summary());
    assert_eq!(report.error_count(), 1, "{}", report.summary());
    let v = report
        .violations
        .iter()
        .find(|v| v.severity == Severity::Error)
        .unwrap();
    assert_eq!(v.rule_id, "EM.VIA");
    assert_eq!(v.layer.as_deref(), Some("V1"));
    assert_eq!(v.found, Some(300));
    assert_eq!(v.required, Some(250));
}

/// Two more parallel routes make the same 300 µA via stack legal: the cut
/// count scales with the route count.
#[test]
fn widened_net_clears_the_same_via_stack() {
    let tech = Technology::finfet7();
    let routing = one_segment_route("sig", 6);
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.routing = Some(&routing);
    art.net_widths = HashMap::from([("sig".to_string(), 2u32)]);
    art.net_currents = vec![NetCurrent {
        net: "sig".into(),
        worst_a: 300e-6,
        taps: Vec::new(),
    }];
    // Passing (no errors); the tapless fixture still carries the degraded
    // EM.FALLBACK note.
    let report = check_erc(&art);
    assert!(report.is_passing(), "{}", report.summary());
    assert_eq!(report.error_count(), 0, "{}", report.summary());
}

/// A supply tap whose grid feed (39 mV) plus internal access drop
/// (300 µA × 20 Ω = 6 mV) blows the 40 mV budget (5 % of 0.8 V).
#[test]
fn seeded_supply_drop_trips_ir_budget() {
    let tech = Technology::finfet7();
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.supply = vec![SupplyTap {
        instance: "m7".into(),
        net: "vdd".into(),
        current_a: 300e-6,
        grid_drop_v: 39e-3,
        internal_r_ohm: 20.0,
    }];
    let report = check_erc(&art);
    assert_eq!(report.violations.len(), 1, "{}", report.summary());
    let v = &report.violations[0];
    assert_eq!(v.rule_id, "IR.BUDGET");
    assert_eq!(v.scope.as_deref(), Some("m7"));
    assert_eq!(v.found, Some(45_000));
    assert_eq!(v.required, Some(40_000));
}

/// A declared symmetric pair placed 300 nm apart in y — far outside the
/// 40 nm matching tolerance.
#[test]
fn seeded_offset_pair_trips_sym_mirror() {
    let tech = Technology::finfet7();
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.outlines = vec![
        (
            "ma".to_string(),
            Rect::from_size(Point::new(0, 0), 1200, 800),
        ),
        (
            "mb".to_string(),
            Rect::from_size(Point::new(1400, 300), 1200, 800),
        ),
    ];
    art.pairs = vec![SymmetryPair {
        a: "ma".into(),
        b: "mb".into(),
    }];
    let report = check_erc(&art);
    assert_eq!(report.violations.len(), 1, "{}", report.summary());
    let v = &report.violations[0];
    assert_eq!(v.rule_id, "SYM.MIRROR");
    assert_eq!(v.scope.as_deref(), Some("ma/mb"));
    assert_eq!(v.found, Some(300));
    assert_eq!(v.required, Some(40));
}

/// A common-centroid cell whose device centroids sit 500 nm apart.
#[test]
fn seeded_split_centroids_trip_sym_centroid() {
    let tech = Technology::finfet7();
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.centroid_groups = vec![CentroidGroup {
        instance: "dp0".into(),
        centroids: vec![("MA".into(), 400.0), ("MB".into(), 900.0)],
    }];
    let report = check_erc(&art);
    assert_eq!(report.violations.len(), 1, "{}", report.summary());
    let v = &report.violations[0];
    assert_eq!(v.rule_id, "SYM.CENTROID");
    assert_eq!(v.scope.as_deref(), Some("dp0"));
    assert_eq!(v.found, Some(500));
    assert_eq!(v.required, Some(40));
}

fn tap(instance: &str, port: &str, net: &str, gate: bool) -> prima_erc::PortTap {
    prima_erc::PortTap {
        instance: instance.into(),
        port: port.into(),
        net: net.into(),
        is_gate_only: gate,
    }
}

/// A net reaching only transistor gates, not declared an external input:
/// nothing can ever set its voltage.
#[test]
fn seeded_gate_only_net_trips_erc_float() {
    let tech = Technology::finfet7();
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.port_taps = vec![
        tap("m1", "vb", "mid", true),
        tap("m2", "vb", "mid", true),
        tap("m1", "out", "vout", false),
    ];
    let report = check_erc(&art);
    assert_eq!(report.violations.len(), 1, "{}", report.summary());
    let v = &report.violations[0];
    assert_eq!(v.rule_id, "ERC.FLOAT");
    assert_eq!(v.scope.as_deref(), Some("mid"));

    // Declaring it externally driven (a bias pin) silences the rule.
    art.external_nets = vec!["mid".to_string()];
    assert!(check_erc(&art).is_clean());
}

/// A primitive declaring a port the instance never binds to a net.
#[test]
fn seeded_unbound_port_trips_erc_dangle() {
    let tech = Technology::finfet7();
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.port_taps = vec![tap("m1", "in", "a", false)];
    art.declared_ports = vec![("m1".to_string(), vec!["in".into(), "out".into()])];
    let report = check_erc(&art);
    assert_eq!(report.violations.len(), 1, "{}", report.summary());
    let v = &report.violations[0];
    assert_eq!(v.rule_id, "ERC.DANGLE");
    assert_eq!(v.scope.as_deref(), Some("m1"));
    assert!(v.message.contains("m1.out"), "{}", v.message);
}

/// A cell placed 9 µm from the only well-tap row, against a 5 µm limit.
#[test]
fn seeded_remote_cell_trips_erc_tap() {
    let tech = Technology::finfet7();
    let mut art = ErcArtifacts::new("fixture", &tech);
    art.tap_rows = vec![0];
    art.outlines = vec![(
        "far".to_string(),
        Rect::from_size(Point::new(0, 9_000), 1_000, 1_000),
    )];
    let report = check_erc(&art);
    assert_eq!(report.violations.len(), 1, "{}", report.summary());
    let v = &report.violations[0];
    assert_eq!(v.rule_id, "ERC.TAP");
    assert_eq!(v.scope.as_deref(), Some("far"));
    assert_eq!(v.found, Some(9_000));
    assert_eq!(v.required, Some(5_000));
}
