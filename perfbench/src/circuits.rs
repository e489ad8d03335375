//! The four benchmark circuits behind one enum, so workloads can list
//! them as data.

use std::collections::HashMap;

use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{FlowError, Realization};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};

/// A benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ckt {
    CsAmp,
    Ota,
    StrongArm,
    Vco,
}

/// The RO-VCO as the benchmark runs it: the four-stage ring. The
/// eight-stage ring's flat conventional placement alone takes about a
/// minute on a 2-core machine and its transient measure several more, which
/// does not fit a run's time limit.
fn vco() -> RoVco {
    RoVco::small()
}

impl Ckt {
    /// All circuits, in report order.
    pub const ALL: [Ckt; 4] = [Ckt::CsAmp, Ckt::Ota, Ckt::StrongArm, Ckt::Vco];

    /// The circuit's spec name (the suffix of its per-circuit metrics).
    pub fn name(self) -> &'static str {
        match self {
            Ckt::CsAmp => "cs_amp",
            Ckt::Ota => "ota5t",
            Ckt::StrongArm => "strongarm",
            Ckt::Vco => "rovco",
        }
    }

    /// Primitive-level structure.
    pub fn spec(self) -> CircuitSpec {
        match self {
            Ckt::CsAmp => CsAmp::spec(),
            Ckt::Ota => FiveTOta::spec(),
            Ckt::StrongArm => StrongArm::spec(),
            Ckt::Vco => vco().spec(),
        }
    }

    /// Per-instance bias records from the schematic simulation.
    pub fn biases(
        self,
        tech: &Technology,
        lib: &Library,
    ) -> Result<HashMap<String, Bias>, FlowError> {
        match self {
            Ckt::CsAmp => CsAmp::biases(tech, lib),
            Ckt::Ota => FiveTOta::biases(tech, lib),
            Ckt::StrongArm => StrongArm::biases(tech, lib),
            Ckt::Vco => vco().biases(tech, lib),
        }
    }

    /// Circuit-level measurement of a realization, rendered with `{:?}`
    /// (exact float digits) so it can feed the output digest.
    pub fn measure(
        self,
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
    ) -> Result<String, FlowError> {
        Ok(match self {
            Ckt::CsAmp => format!("{:?}", CsAmp::measure(tech, lib, realization)?),
            Ckt::Ota => format!("{:?}", FiveTOta::measure(tech, lib, realization)?),
            Ckt::StrongArm => format!("{:?}", StrongArm::measure(tech, lib, realization)?),
            Ckt::Vco => format!("{:?}", vco().measure(tech, lib, realization)?),
        })
    }
}
