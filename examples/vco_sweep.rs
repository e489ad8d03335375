//! Regenerates the RO-VCO tuning curve (Table VII) for the schematic and
//! both automatic flows.
//!
//! Run with `cargo run --release --example vco_sweep` (this drives long
//! transient simulations; expect minutes).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use prima_flow::circuits::RoVco;
use prima_flow::{conventional_flow, optimized_flow_with, FlowOptions, Realization};
use prima_pdk::Technology;
use prima_primitives::Library;

fn main() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let vco = RoVco::default();
    let spec = vco.spec();

    println!("== schematic tuning curve ==");
    let sch = vco
        .measure(&tech, &lib, &Realization::schematic())
        .expect("schematic VCO");
    print_curve(&sch.curve);
    println!("{sch}");

    println!("\n== conventional flow ==");
    let conv = conventional_flow(&tech, &lib, &spec, 17).expect("conventional flow");
    let conv_m = vco
        .measure(&tech, &lib, &conv.realization)
        .expect("conventional VCO");
    print_curve(&conv_m.curve);
    println!("{conv_m}");

    println!("\n== optimized flow (this work) ==");
    let biases = vco.biases(&tech, &lib).expect("bias extraction");
    let opt = optimized_flow_with(&tech, &lib, &spec, &biases, 17, FlowOptions::default())
        .expect("optimized flow");
    let opt_m = vco
        .measure(&tech, &lib, &opt.realization)
        .expect("optimized VCO");
    print_curve(&opt_m.curve);
    println!("{opt_m}");

    println!("\nTable VII shape: schematic fmax >= this work fmax > conventional fmax");
    println!(
        "  fmax: schematic {:.2} GHz, this work {:.2} GHz, conventional {:.2} GHz",
        sch.f_max_ghz, opt_m.f_max_ghz, conv_m.f_max_ghz
    );
}

fn print_curve(curve: &[(f64, f64)]) {
    for (v, f) in curve {
        if *f > 0.0 {
            println!("  Vctrl = {v:.3} V -> {f:.2} GHz");
        } else {
            println!("  Vctrl = {v:.3} V -> no oscillation");
        }
    }
}
