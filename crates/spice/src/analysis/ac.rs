//! Small-signal AC analysis: complex MNA around a DC operating point.

use crate::netlist::{Circuit, Element, NodeId};
use crate::num::{Complex, Matrix};

use super::dc::{DcSolver, OperatingPoint};
use super::{AnalysisError, MnaBuffers, Topology};

/// Frequency grid specification for an AC sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum FrequencySweep {
    /// Logarithmic sweep with `points_per_decade` points from `start` to
    /// `stop` (Hz), inclusive of the endpoints.
    Decade {
        /// Start frequency in Hz (> 0).
        start: f64,
        /// Stop frequency in Hz (> start).
        stop: f64,
        /// Points per decade (≥ 1).
        points_per_decade: usize,
    },
    /// Linear sweep with `points` samples from `start` to `stop` (Hz).
    Linear {
        /// Start frequency in Hz (> 0).
        start: f64,
        /// Stop frequency in Hz (≥ start).
        stop: f64,
        /// Number of samples (≥ 2).
        points: usize,
    },
    /// An explicit list of frequencies in Hz.
    List(Vec<f64>),
}

impl FrequencySweep {
    /// Expands the specification into a concrete frequency list.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BadParameters`] for non-positive or reversed
    /// frequency bounds.
    pub fn frequencies(&self) -> Result<Vec<f64>, AnalysisError> {
        match self {
            FrequencySweep::Decade {
                start,
                stop,
                points_per_decade,
            } => {
                if !(*start > 0.0 && stop > start && *points_per_decade >= 1) {
                    return Err(AnalysisError::BadParameters {
                        reason: format!(
                            "decade sweep requires 0 < start < stop, ppd >= 1; got {start}..{stop} ppd {points_per_decade}"
                        ),
                    });
                }
                let decades = (stop / start).log10();
                let n = (decades * *points_per_decade as f64).ceil() as usize + 1;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let f = start * 10f64.powf(i as f64 / *points_per_decade as f64);
                    if f > *stop * (1.0 + 1e-12) {
                        break;
                    }
                    out.push(f);
                }
                if out.last().is_none_or(|&f| f < *stop) {
                    out.push(*stop);
                }
                Ok(out)
            }
            FrequencySweep::Linear {
                start,
                stop,
                points,
            } => {
                if !(*start > 0.0 && stop >= start && *points >= 2) {
                    return Err(AnalysisError::BadParameters {
                        reason: format!(
                            "linear sweep requires 0 < start <= stop, points >= 2; got {start}..{stop} x{points}"
                        ),
                    });
                }
                Ok((0..*points)
                    .map(|i| start + (stop - start) * i as f64 / (*points as f64 - 1.0))
                    .collect())
            }
            FrequencySweep::List(fs) => {
                if fs.is_empty() || fs.iter().any(|f| !(f.is_finite() && *f > 0.0)) {
                    return Err(AnalysisError::BadParameters {
                        reason: "frequency list must be non-empty and positive".to_string(),
                    });
                }
                Ok(fs.clone())
            }
        }
    }
}

/// Result of an AC sweep: one complex MNA solution per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    topo: Topology,
    freqs: Vec<f64>,
    solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The swept frequencies in Hz.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex node voltage at frequency index `fidx`.
    pub fn phasor(&self, node: NodeId, fidx: usize) -> Complex {
        match self.topo.vix(node) {
            Some(i) => self.solutions[fidx][i],
            None => Complex::ZERO,
        }
    }

    /// Complex branch current of a voltage-defined element at `fidx`.
    pub fn branch_phasor(&self, name: &str, fidx: usize) -> Option<Complex> {
        self.topo
            .branch_ix_by_name(name)
            .map(|i| self.solutions[fidx][i])
    }

    /// Magnitude response of a node across the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|i| self.phasor(node, i).norm())
            .collect()
    }

    /// Phase response (radians, unwrapped naive) of a node across the sweep.
    pub fn phase(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|i| self.phasor(node, i).arg())
            .collect()
    }
}

/// AC solver: computes the operating point, then sweeps frequency.
#[derive(Debug, Clone, Default)]
pub struct AcSolver {
    dc: DcSolver,
}

impl AcSolver {
    /// Creates a solver with default DC convergence settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the sweep, computing the operating point internally.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures and singular AC systems.
    pub fn solve(
        &self,
        circuit: &Circuit,
        sweep: &FrequencySweep,
    ) -> Result<AcResult, AnalysisError> {
        let op = self.dc.solve(circuit)?;
        self.solve_at_op(circuit, &op, sweep)
    }

    /// Runs the sweep around an existing operating point (avoids re-solving
    /// DC when several sweeps share a bias).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Linear`] if the complex system is singular at
    /// any frequency.
    pub fn solve_at_op(
        &self,
        circuit: &Circuit,
        op: &OperatingPoint,
        sweep: &FrequencySweep,
    ) -> Result<AcResult, AnalysisError> {
        let topo = Topology::build(circuit);
        let freqs = sweep.frequencies()?;
        let dim = topo.dim();
        let mut solutions = Vec::with_capacity(freqs.len());
        let mut buf = MnaBuffers::<Complex>::new(dim);

        for &f in &freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            let x = buf.solve_with(|mat, rhs| assemble_ac(circuit, &topo, op, omega, mat, rhs))?;
            solutions.push(x.to_vec());
        }
        Ok(AcResult {
            topo,
            freqs,
            solutions,
        })
    }
}

fn stamp_admittance(mat: &mut Matrix<Complex>, topo: &Topology, a: NodeId, b: NodeId, y: Complex) {
    let ia = topo.vix(a);
    let ib = topo.vix(b);
    if let Some(i) = ia {
        mat.stamp(i, i, y);
    }
    if let Some(j) = ib {
        mat.stamp(j, j, y);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        mat.stamp(i, j, -y);
        mat.stamp(j, i, -y);
    }
}

// The topology is derived from the very circuit being stamped, so every
// branch element has a branch row and the operating point covers every FET;
// `expect` documents that invariant rather than a recoverable condition.
#[allow(clippy::expect_used)]
fn assemble_ac(
    circuit: &Circuit,
    topo: &Topology,
    op: &OperatingPoint,
    omega: f64,
    mat: &mut Matrix<Complex>,
    rhs: &mut [Complex],
) {
    const GMIN: f64 = 1e-12;
    for i in 0..topo.node_unknowns() {
        mat.stamp(i, i, Complex::from_re(GMIN));
    }
    for (idx, el) in circuit.elements().iter().enumerate() {
        match el {
            Element::Resistor { a, b, ohms, .. } => {
                stamp_admittance(mat, topo, *a, *b, Complex::from_re(1.0 / ohms));
            }
            Element::Capacitor { a, b, farads, .. } => {
                stamp_admittance(mat, topo, *a, *b, Complex::new(0.0, omega * farads));
            }
            Element::Inductor { a, b, henries, .. } => {
                let k = topo.branch_ix(idx).expect("inductor branch");
                stamp_branch_kcl_c(mat, topo, *a, *b, k);
                if let Some(ia) = topo.vix(*a) {
                    mat.stamp(k, ia, Complex::ONE);
                }
                if let Some(ib) = topo.vix(*b) {
                    mat.stamp(k, ib, -Complex::ONE);
                }
                mat.stamp(k, k, Complex::new(0.0, -omega * henries));
            }
            Element::VSource {
                pos, neg, ac_mag, ..
            } => {
                let k = topo.branch_ix(idx).expect("vsource branch");
                stamp_branch_kcl_c(mat, topo, *pos, *neg, k);
                if let Some(ip) = topo.vix(*pos) {
                    mat.stamp(k, ip, Complex::ONE);
                }
                if let Some(in_) = topo.vix(*neg) {
                    mat.stamp(k, in_, -Complex::ONE);
                }
                rhs[k] += Complex::from_re(*ac_mag);
            }
            Element::ISource {
                pos, neg, ac_mag, ..
            } => {
                if let Some(ip) = topo.vix(*pos) {
                    rhs[ip] -= Complex::from_re(*ac_mag);
                }
                if let Some(in_) = topo.vix(*neg) {
                    rhs[in_] += Complex::from_re(*ac_mag);
                }
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let k = topo.branch_ix(idx).expect("vcvs branch");
                stamp_branch_kcl_c(mat, topo, *p, *n, k);
                for (node, sign) in [(*p, 1.0), (*n, -1.0), (*cp, -gain), (*cn, *gain)] {
                    if let Some(i) = topo.vix(node) {
                        mat.stamp(k, i, Complex::from_re(sign));
                    }
                }
            }
            Element::Vccs {
                p, n, cp, cn, gm, ..
            } => {
                for (row, rsign) in [(*p, 1.0), (*n, -1.0)] {
                    if let Some(r) = topo.vix(row) {
                        for (col, csign) in [(*cp, 1.0), (*cn, -1.0)] {
                            if let Some(cix) = topo.vix(col) {
                                mat.stamp(r, cix, Complex::from_re(gm * rsign * csign));
                            }
                        }
                    }
                }
            }
            Element::Fet(fet) => {
                let fop = op
                    .fet_op(&fet.name)
                    .expect("operating point covers every FET");
                // Re-evaluate raw-frame partials at the OP voltages.
                let vd = op.voltage(fet.d);
                let vg = op.voltage(fet.g);
                let vs = op.voltage(fet.s);
                let vb = op.voltage(fet.b);
                let e = fet.eval(vd, vg, vs, vb);
                let partials = [
                    (fet.d, e.did_dvd),
                    (fet.g, e.did_dvg),
                    (fet.s, e.did_dvs),
                    (fet.b, e.did_dvb),
                ];
                if let Some(id_) = topo.vix(fet.d) {
                    for (node, dp) in partials {
                        if let Some(col) = topo.vix(node) {
                            mat.stamp(id_, col, Complex::from_re(dp));
                        }
                    }
                }
                if let Some(is_) = topo.vix(fet.s) {
                    for (node, dp) in partials {
                        if let Some(col) = topo.vix(node) {
                            mat.stamp(is_, col, Complex::from_re(-dp));
                        }
                    }
                }
                // Bias-dependent capacitances.
                let caps = fop.caps;
                for (a, b, c) in [
                    (fet.g, fet.s, caps.cgs),
                    (fet.g, fet.d, caps.cgd),
                    (fet.g, fet.b, caps.cgb),
                    (fet.d, fet.b, caps.cdb),
                    (fet.s, fet.b, caps.csb),
                ] {
                    if c > 0.0 {
                        stamp_admittance(mat, topo, a, b, Complex::new(0.0, omega * c));
                    }
                }
            }
        }
    }
}

fn stamp_branch_kcl_c(
    mat: &mut Matrix<Complex>,
    topo: &Topology,
    pos: NodeId,
    neg: NodeId,
    k: usize,
) {
    if let Some(ip) = topo.vix(pos) {
        mat.stamp(ip, k, Complex::ONE);
    }
    if let Some(in_) = topo.vix(neg) {
        mat.stamp(in_, k, -Complex::ONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    #[test]
    fn sweep_expansion_decade() {
        let s = FrequencySweep::Decade {
            start: 1e3,
            stop: 1e6,
            points_per_decade: 1,
        };
        let f = s.frequencies().unwrap();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 1e3).abs() < 1.0 && (f[3] - 1e6).abs() < 1.0);
    }

    #[test]
    fn sweep_rejects_bad_bounds() {
        assert!(FrequencySweep::Decade {
            start: 0.0,
            stop: 1e6,
            points_per_decade: 10
        }
        .frequencies()
        .is_err());
        assert!(FrequencySweep::List(vec![]).frequencies().is_err());
        assert!(FrequencySweep::List(vec![-1.0]).frequencies().is_err());
    }

    #[test]
    fn rc_lowpass_pole() {
        // R = 1 kΩ, C = 1 nF: f3dB = 1/(2πRC) ≈ 159.15 kHz.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource_ac("V1", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, out, 1e3).unwrap();
        c.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let res = AcSolver::new()
            .solve(
                &c,
                &FrequencySweep::List(vec![f3db / 100.0, f3db, f3db * 100.0]),
            )
            .unwrap();
        let mags = res.magnitude(out);
        assert!((mags[0] - 1.0).abs() < 1e-3);
        assert!((mags[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(mags[2] < 0.02);
        // Phase at the pole is −45°.
        let ph = res.phase(out)[1];
        assert!((ph + std::f64::consts::FRAC_PI_4).abs() < 1e-3);
    }

    #[test]
    fn lc_resonance() {
        // Series RLC driven by 1 V: current peaks at f0 = 1/(2π√(LC)).
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let o = c.node("o");
        c.vsource_ac("V1", a, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", a, b, 10.0).unwrap();
        c.inductor("L1", b, o, 1e-6).unwrap();
        c.capacitor("C1", o, Circuit::GROUND, 1e-9).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let res = AcSolver::new()
            .solve(&c, &FrequencySweep::List(vec![f0 / 3.0, f0, f0 * 3.0]))
            .unwrap();
        let i = |k: usize| res.branch_phasor("V1", k).unwrap().norm();
        assert!(i(1) > 5.0 * i(0), "resonance peak {} vs {}", i(1), i(0));
        assert!(i(1) > 5.0 * i(2));
        // At resonance |I| = V/R = 0.1 A.
        assert!((i(1) - 0.1).abs() < 1e-3);
    }

    #[test]
    fn vsource_ammeter_reads_capacitor_current() {
        // 0 V source in series with a cap: branch current = jωC·V.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let x = c.node("x");
        c.vsource_ac("VIN", vin, Circuit::GROUND, 0.0, 1.0);
        c.vsource("VMEAS", vin, x, 0.0);
        c.capacitor("C1", x, Circuit::GROUND, 1e-12).unwrap();
        let f = 1e9;
        let res = AcSolver::new()
            .solve(&c, &FrequencySweep::List(vec![f]))
            .unwrap();
        let i = res.branch_phasor("VMEAS", 0).unwrap();
        let expect = 2.0 * std::f64::consts::PI * f * 1e-12;
        assert!((i.norm() - expect).abs() / expect < 1e-6);
        // Current through a cap leads voltage by 90°.
        assert!((i.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
    }
}
