//! Full hierarchical flow on the high-frequency 5T OTA: schematic
//! reference, conventional baseline, and the optimized-primitives flow —
//! the Table VI comparison.
//!
//! Run with `cargo run --release --example ota_flow`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use prima_flow::circuits::FiveTOta;
use prima_flow::{conventional_flow, optimized_flow_with, FlowOptions, Realization};
use prima_pdk::Technology;
use prima_primitives::Library;

fn main() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let spec = FiveTOta::spec();

    println!("== schematic ==");
    let sch = FiveTOta::measure(&tech, &lib, &Realization::schematic()).expect("schematic sim");
    println!("{sch}");

    println!("\n== conventional flow (geometry only) ==");
    let conv = conventional_flow(&tech, &lib, &spec, 42).expect("conventional flow");
    let conv_m = FiveTOta::measure(&tech, &lib, &conv.realization).expect("conventional sim");
    println!("{conv_m}");
    println!(
        "  area {:.1} µm², wirelength {:.1} µm, runtime {:?}",
        conv.area_um2, conv.wirelength_um, conv.runtime
    );

    println!("\n== optimized flow (this work) ==");
    let biases = FiveTOta::biases(&tech, &lib).expect("bias extraction");
    let opt = optimized_flow_with(&tech, &lib, &spec, &biases, 42, FlowOptions::default())
        .expect("optimized flow");
    let opt_m = FiveTOta::measure(&tech, &lib, &opt.realization).expect("optimized sim");
    println!("{opt_m}");
    println!(
        "  area {:.1} µm², wirelength {:.1} µm, runtime {:?}",
        opt.area_um2, opt.wirelength_um, opt.runtime
    );
    println!(
        "  simulations: selection {}, tuning {}, ports {}",
        opt.sims["selection"], opt.sims["tuning"], opt.sims["ports"]
    );
    for (net, wire) in &opt.realization.net_wires {
        println!(
            "  net {net}: R = {:.1} Ω, C = {:.2} fF",
            wire.r_ohm,
            wire.c_f * 1e15
        );
    }

    // The headline shape: the optimized flow tracks the schematic more
    // closely than the conventional flow on UGF and gain.
    let d = |a: f64, b: f64| (a - b).abs() / b.abs();
    println!("\n== deviation from schematic ==");
    println!(
        "gain: conventional {:.1}%, this work {:.1}%",
        100.0 * d(conv_m.gain_db, sch.gain_db),
        100.0 * d(opt_m.gain_db, sch.gain_db)
    );
    println!(
        "UGF : conventional {:.1}%, this work {:.1}%",
        100.0 * d(conv_m.ugf_ghz, sch.ugf_ghz),
        100.0 * d(opt_m.ugf_ghz, sch.ugf_ghz)
    );
}
