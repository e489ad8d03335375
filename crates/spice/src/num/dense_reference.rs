//! Parity fixtures for the LU kernel: the dense partial-pivoting
//! elimination that `Matrix::solve` ran before the structure-skipping
//! kernel, kept verbatim as the bit-for-bit reference, plus a generator of
//! sparse MNA-like systems and the parity check itself.
//!
//! Compiled into the unit tests of `num` and included by path from
//! `tests/invariants.rs`; each includer has `Complex`, `LinearError`,
//! `Matrix` and `Scalar` in scope.

use super::*;

/// The former `Matrix::solve`, verbatim except that it reads the entries
/// through the public indexing API.
pub fn dense_solve<T: Scalar>(m: &Matrix<T>, b: &[T]) -> Result<Vec<T>, LinearError> {
    let n = m.dim();
    let data: Vec<T> = (0..n * n).map(|i| m[(i / n, i % n)]).collect();
    if b.len() != n {
        return Err(LinearError::DimensionMismatch);
    }
    if data.iter().any(|v| v.is_bad()) || b.iter().any(|v| v.is_bad()) {
        return Err(LinearError::NotFinite);
    }
    let mut a = data.clone();
    let mut x: Vec<T> = b.to_vec();

    for k in 0..n {
        // Partial pivoting: choose the largest-magnitude entry in column k.
        let mut piv = k;
        let mut piv_mag = a[k * n + k].magnitude();
        for r in (k + 1)..n {
            let mag = a[r * n + k].magnitude();
            if mag > piv_mag {
                piv = r;
                piv_mag = mag;
            }
        }
        if piv_mag < 1e-300 || !piv_mag.is_finite() {
            return Err(LinearError::Singular { step: k });
        }
        if piv != k {
            for c in 0..n {
                a.swap(k * n + c, piv * n + c);
            }
            x.swap(k, piv);
        }
        let pivot = a[k * n + k];
        // Slice-based elimination: the pivot row is disjoint from every
        // row below it, so split the storage once and let the inner
        // update run over contiguous slices (vectorizes well).
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let prow = &upper[k * n..];
        for (ri, row) in lower.chunks_exact_mut(n).enumerate() {
            let factor = row[k] / pivot;
            if factor == T::ZERO {
                continue;
            }
            row[k] = factor;
            for (rc, &kc) in row[(k + 1)..n].iter_mut().zip(&prow[(k + 1)..n]) {
                *rc -= factor * kc;
            }
            let sub = factor * x[k];
            x[k + 1 + ri] -= sub;
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        for c in (k + 1)..n {
            let sub = a[k * n + c] * x[c];
            x[k] -= sub;
        }
        x[k] = x[k] / a[k * n + k];
    }
    if x.iter().any(|v| v.is_bad()) {
        return Err(LinearError::NotFinite);
    }
    Ok(x)
}

/// SplitMix64: a small seeded generator, so the fixtures need no crate.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A positive magnitude spread log-uniformly over `1e-6 ..= 1e3`, the
    /// range of conductances and companion admittances in MNA stamps.
    pub fn magnitude(&mut self) -> f64 {
        10f64.powf(-6.0 + 9.0 * self.unit())
    }
}

/// Entry values for generated systems: real conductances, or complex
/// admittances mixing conductance and susceptance.
pub trait Fixture: Scalar {
    /// A conductance- or admittance-like value.
    fn admittance(rng: &mut SplitMix) -> Self;
    /// A value of either sign, as a source current or voltage; never
    /// `-0.0` in any component.
    fn signed(rng: &mut SplitMix) -> Self;
    /// A real value `v` in this field.
    fn real(v: f64) -> Self;
    /// The raw bits, for bit-for-bit comparison (the sign of zero and NaN
    /// payloads included).
    fn bits(self) -> [u64; 2];
}

impl Fixture for f64 {
    fn admittance(rng: &mut SplitMix) -> f64 {
        rng.magnitude()
    }
    fn signed(rng: &mut SplitMix) -> f64 {
        let v = rng.magnitude();
        if rng.below(2) == 0 {
            v
        } else {
            -v
        }
    }
    fn real(v: f64) -> f64 {
        v
    }
    fn bits(self) -> [u64; 2] {
        [self.to_bits(), 0]
    }
}

impl Fixture for Complex {
    fn admittance(rng: &mut SplitMix) -> Complex {
        match rng.below(3) {
            0 => Complex::new(rng.magnitude(), 0.0),
            1 => Complex::new(0.0, rng.magnitude()),
            _ => Complex::new(rng.magnitude(), rng.magnitude()),
        }
    }
    fn signed(rng: &mut SplitMix) -> Complex {
        match rng.below(3) {
            0 => Complex::new(f64::signed(rng), 0.0),
            1 => Complex::new(0.0, f64::signed(rng)),
            _ => Complex::new(f64::signed(rng), f64::signed(rng)),
        }
    }
    fn real(v: f64) -> Complex {
        Complex::from_re(v)
    }
    fn bits(self) -> [u64; 2] {
        [self.re.to_bits(), self.im.to_bits()]
    }
}

/// A random sparse system shaped like an MNA matrix, with `n` unknowns and
/// a right-hand side.
///
/// The first unknowns are nodes, the rest branch currents of voltage
/// sources and VCVSs. Nodes get conductance stamps (symmetric pairs, values
/// over nine decades), usually including a random tree that ties every
/// node to ground, and transconductances (one-sided, so rows are not
/// diagonally dominant); only some nodes get a gmin. Every branch row has
/// a zero diagonal, which forces row swaps; sources never form a loop. One system in ten skips the
/// tree and may leave a node floating (singular). Finally a few rows are
/// overwritten on a subset of columns with a power-of-two multiple of
/// another row, so elimination cancels fill to exact zeros.
pub fn mna_like<T: Fixture>(n: usize, rng: &mut SplitMix) -> (Matrix<T>, Vec<T>) {
    let mut m = Matrix::<T>::zero(n);
    let branches = if n > 1 { rng.below(n / 2 + 1) } else { 0 };
    let nodes = n - branches;
    // A terminal: a node unknown, or ground (`None`) one time in four.
    let terminal = |rng: &mut SplitMix| -> Option<usize> {
        if nodes == 0 || rng.below(4) == 0 {
            None
        } else {
            Some(rng.below(nodes))
        }
    };
    for i in 0..nodes {
        if rng.below(2) == 0 {
            m.stamp(i, i, T::real(1e-12));
        }
    }
    let tree = rng.below(10) != 0;
    for i in 0..nodes {
        // A tree edge from node i to an earlier node (to ground when the
        // draw is i itself), then maybe one random extra conductance.
        let parent = rng.below(i + 1);
        let edges = [
            (Some(i), (parent < i).then_some(parent), tree),
            (terminal(rng), terminal(rng), rng.below(2) == 0),
        ];
        for (a, b, present) in edges {
            if !present {
                continue;
            }
            let g = T::admittance(rng);
            if let Some(a) = a {
                m.stamp(a, a, g);
            }
            if let Some(b) = b {
                m.stamp(b, b, g);
            }
            if let (Some(a), Some(b)) = (a, b) {
                m.stamp(a, b, -g);
                m.stamp(b, a, -g);
            }
        }
    }
    for _ in 0..(nodes / 3) {
        let (d, s, g, gm) = (
            terminal(rng),
            terminal(rng),
            terminal(rng),
            T::admittance(rng),
        );
        if let Some(g) = g {
            if let Some(d) = d {
                m.stamp(d, g, gm);
            }
            if let Some(s) = s {
                m.stamp(s, g, -gm);
            }
        }
    }
    // Sources never form a loop: each has its own positive node, and its
    // negative terminal is ground or a node no source drives.
    let mut order: Vec<usize> = (0..nodes).collect();
    for i in (1..nodes).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let (driven, free) = order.split_at(branches);
    for (k, &p) in (nodes..n).zip(driven) {
        let pos = Some(p);
        let neg = match free.len() {
            0 => None,
            len => Some(free[rng.below(len)]).filter(|_| rng.below(4) != 0),
        };
        for (node, sign) in [(pos, 1.0), (neg, -1.0)] {
            if let Some(i) = node {
                m.stamp(i, k, T::real(sign));
                m.stamp(k, i, T::real(sign));
            }
        }
        // One branch in three is a VCVS sensing another node pair.
        if rng.below(3) == 0 {
            let gain = 10f64.powf(2.0 * rng.unit());
            for (node, sign) in [(terminal(rng), -gain), (terminal(rng), gain)] {
                if let Some(i) = node {
                    m.stamp(k, i, T::real(sign));
                }
            }
        }
    }
    for _ in 0..(n / 8) {
        let (src, dst) = (rng.below(n), rng.below(n));
        let support: Vec<usize> = (0..n).filter(|&c| m[(src, c)] != T::ZERO).collect();
        if src == dst || support.len() < 2 {
            continue;
        }
        // Copy all of src's support but one column, which keeps dst
        // independent of src.
        let keep = support[rng.below(support.len())];
        let scale = T::real(f64::from(1u32 << rng.below(3)) * 0.5);
        for &c in support.iter().filter(|&&c| c != keep) {
            m[(dst, c)] = scale * m[(src, c)];
        }
    }
    let b = (0..n)
        .map(|_| match rng.below(3) {
            0 => T::ZERO,
            _ => T::signed(rng),
        })
        .collect();
    (m, b)
}

/// Solves `m·x = b` with the reference, with [`Matrix::solve`] and with
/// [`Matrix::solve_in_place`], and describes the first disagreement: a
/// different error, or any solution bit.
pub fn parity<T: Fixture>(m: &Matrix<T>, b: &[T]) -> Result<(), String> {
    let want = dense_solve(m, b);
    let wrapped = m.solve(b);
    let mut work = m.clone();
    let mut x = b.to_vec();
    let in_place = work.solve_in_place(&mut x).map(|()| x);
    for (name, got) in [("solve", wrapped), ("solve_in_place", in_place)] {
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                for (i, (wi, gi)) in w.iter().zip(g).enumerate() {
                    if wi.bits() != gi.bits() {
                        return Err(format!(
                            "{name}: x[{i}] = {gi:?}, reference {wi:?} (n = {})",
                            m.dim()
                        ));
                    }
                }
            }
            (w, g) if w == g => {}
            (w, g) => return Err(format!("{name}: {g:?}, reference {w:?} (n = {})", m.dim())),
        }
    }
    Ok(())
}
