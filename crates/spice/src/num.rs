//! Numeric kernel: complex arithmetic and a structure-skipping LU.
//!
//! Primitive-level MNA systems are small and mostly zero: a StrongARM
//! testbench matrix has n ≈ 30 unknowns but only about 79 nonzeros of its
//! ~900 entries, and about 113 after fill. Dense LU pays for every zero in
//! O(n³) elimination and in a back-substitution chain over zeros.
//! [`Matrix::solve_in_place`] keeps dense row-major storage and the exact
//! partial-pivoting sequence, but skips exact zeros: rows with a zero in
//! the pivot column are not touched, the other rows are updated only at
//! the pivot row's nonzero columns (recorded once per pivot row: U's row
//! structure), and back substitution walks only those recorded columns.
//!
//! A skipped update would have subtracted `f·0 = ±0` for a finite factor
//! `f`, which changes no bit of a nonzero operand and cannot turn `+0.0`
//! into `-0.0` (a non-finite `f`, which only overflow can produce, updates
//! every column). MNA assembly stamps by addition onto `+0.0`, so its
//! systems never hold `-0.0`, and on them the kernel returns the same bits
//! and errors as plain dense elimination with the same pivots, which
//! `num/dense_reference.rs` keeps as the test reference. Only an input that
//! already holds `-0.0` can see the sign of an exactly-zero solution
//! component differ.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number over `f64`, used by AC (small-signal) analysis.
///
/// A purpose-built type (rather than an external dependency) keeps the
/// workspace self-contained; only the operations MNA needs are provided.
///
/// # Example
///
/// ```
/// use prima_spice::num::Complex;
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j` (electrical-engineering spelling of `i`).
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z|`, computed with `hypot` for stability.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid overflow for extreme magnitudes.
    #[inline]
    pub fn recip(self) -> Self {
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex::new(r / d, -1.0 / d)
        }
    }

    /// Returns `true` if either component is NaN or infinite.
    #[inline]
    pub fn is_bad(self) -> bool {
        !self.re.is_finite() || !self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    // Division via the overflow-safe reciprocal is the intended algorithm.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}
impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}
impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}
impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

/// Scalar field abstraction so one LU implementation serves both real (DC,
/// transient) and complex (AC) MNA systems.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + fmt::Debug
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Magnitude used for pivot selection.
    fn magnitude(self) -> f64;
    /// Returns `true` if the value contains NaN/∞.
    fn is_bad(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_bad(self) -> bool {
        !self.is_finite()
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;
    #[inline]
    fn magnitude(self) -> f64 {
        self.norm()
    }
    #[inline]
    fn is_bad(self) -> bool {
        Complex::is_bad(self)
    }
}

/// A dense, row-major square matrix over a [`Scalar`] field.
///
/// Besides the entries it owns the index scratch of
/// [`Matrix::solve_in_place`], so a matrix reused across Newton iterations
/// factors without allocating once it has been solved.
///
/// # Example
///
/// ```
/// use prima_spice::num::Matrix;
/// let mut m = Matrix::<f64>::zero(2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[2.0, 8.0]).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
///
/// // In place: `m` now holds its LU factors and `b` the solution.
/// let mut b = [2.0, 8.0];
/// m.solve_in_place(&mut b).unwrap();
/// assert_eq!(b, [1.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Matrix<T> {
    n: usize,
    data: Vec<T>,
    /// Columns of U's off-diagonal nonzeros, row after row, as recorded by
    /// the last [`Matrix::solve_in_place`].
    u_cols: Vec<usize>,
    /// Row `k` of U owns `u_cols[u_start[k]..u_start[k + 1]]`.
    u_start: Vec<usize>,
    /// Rows below the current pivot with a nonzero in its column.
    elim_rows: Vec<usize>,
}

/// Equality compares the entries only, not the factorization scratch.
impl<T: PartialEq> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.data == other.data
    }
}

/// Error returned when an MNA system cannot be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearError {
    /// The matrix is singular (or numerically so) at the given elimination step.
    Singular {
        /// Elimination step at which no acceptable pivot was found.
        step: usize,
    },
    /// The right-hand side length does not match the matrix dimension.
    DimensionMismatch,
    /// A non-finite value (NaN/∞) appeared in the matrix or RHS.
    NotFinite,
}

impl fmt::Display for LinearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearError::Singular { step } => {
                write!(f, "singular matrix at elimination step {step}")
            }
            LinearError::DimensionMismatch => write!(f, "dimension mismatch"),
            LinearError::NotFinite => write!(f, "non-finite value in linear system"),
        }
    }
}

impl std::error::Error for LinearError {}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n × n` zero matrix.
    pub fn zero(n: usize) -> Self {
        Matrix {
            n,
            data: vec![T::ZERO; n * n],
            u_cols: Vec::new(),
            u_start: Vec::new(),
            elim_rows: Vec::new(),
        }
    }

    /// The dimension of the (square) matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `v` to entry `(row, col)` — the fundamental MNA stamping op.
    #[inline]
    pub fn stamp(&mut self, row: usize, col: usize, v: T) {
        self.data[row * self.n + col] += v;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::ZERO;
        }
    }

    /// Solves `A·x = b` by LU factorization with partial pivoting.
    ///
    /// The matrix is not modified: a working copy is factored with
    /// [`Matrix::solve_in_place`], whose results and errors this returns.
    ///
    /// # Errors
    ///
    /// As [`Matrix::solve_in_place`].
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinearError> {
        let mut work = Matrix {
            n: self.n,
            data: self.data.clone(),
            u_cols: Vec::new(),
            u_start: Vec::new(),
            elim_rows: Vec::new(),
        };
        let mut x = b.to_vec();
        work.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place: the matrix is overwritten with its LU
    /// factors and `rhs` (holding `b`) with `x`.
    ///
    /// Partial pivoting picks the largest-magnitude entry of each column,
    /// the first row on ties. The elimination skips every exact zero: a row
    /// whose entry in the pivot column is zero is left alone, the other
    /// rows are updated only at the pivot row's nonzero columns, and back
    /// substitution walks only those columns (see the module docs). After
    /// the first call on a matrix of this size nothing is allocated.
    ///
    /// On error the contents of the matrix and of `rhs` are unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`LinearError::DimensionMismatch`] when
    /// `rhs.len() != dim()`, [`LinearError::NotFinite`] when the matrix or
    /// `rhs` holds NaN/∞ (checked before any pivot, so it wins over
    /// singularity) or the solution does, and [`LinearError::Singular`]
    /// with the elimination step at which no pivot of magnitude at least
    /// 1e-300 exists.
    pub fn solve_in_place(&mut self, rhs: &mut [T]) -> Result<(), LinearError> {
        let n = self.n;
        if rhs.len() != n {
            return Err(LinearError::DimensionMismatch);
        }
        if any_bad(&self.data) || any_bad(rhs) {
            return Err(LinearError::NotFinite);
        }
        let Matrix {
            data: a,
            u_cols,
            u_start,
            elim_rows,
            ..
        } = self;
        u_cols.clear();
        u_cols.reserve(n * n.saturating_sub(1) / 2);
        u_start.clear();
        u_start.reserve(n + 1);
        u_start.push(0);
        elim_rows.clear();
        elim_rows.reserve(n);

        for k in 0..n {
            // Partial pivoting: the largest-magnitude entry in column k,
            // the first row on ties. Rows below with a zero there can
            // neither win nor need elimination, so only the others are
            // listed for the elimination below.
            elim_rows.clear();
            let mut piv = k;
            let mut piv_mag = a[k * n + k].magnitude();
            for r in (k + 1)..n {
                let v = a[r * n + k];
                if v == T::ZERO {
                    continue;
                }
                elim_rows.push(r);
                let mag = v.magnitude();
                if mag > piv_mag {
                    piv = r;
                    piv_mag = mag;
                }
            }
            if piv_mag < 1e-300 || !piv_mag.is_finite() {
                return Err(LinearError::Singular { step: k });
            }
            if piv != k {
                // Row k takes the pivot's place in the list; if its entry in
                // column k is zero, its factor is zero and it is skipped.
                let (top, bottom) = a.split_at_mut(piv * n);
                top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
                rhs.swap(k, piv);
            }
            // The pivot row is final from here on: its nonzero columns are
            // U's row structure, used below and by back substitution.
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let prow = &upper[k * n..];
            let first = u_cols.len();
            for (c, v) in prow.iter().enumerate().skip(k + 1) {
                if *v != T::ZERO {
                    u_cols.push(c);
                }
            }
            u_start.push(u_cols.len());
            let cols = &u_cols[first..];
            let pivot = prow[k];
            let xk = rhs[k];
            for &r in elim_rows.iter() {
                let row = &mut lower[(r - k - 1) * n..(r - k) * n];
                let factor = row[k] / pivot;
                if factor == T::ZERO {
                    continue;
                }
                row[k] = factor;
                if factor.is_bad() {
                    // Only overflow earlier in the elimination gets here;
                    // a non-finite factor turns `factor · 0` into NaN, so
                    // update every column to keep the dense result.
                    for (rc, &kc) in row[(k + 1)..].iter_mut().zip(&prow[(k + 1)..]) {
                        *rc -= factor * kc;
                    }
                } else {
                    for &c in cols {
                        let sub = factor * prow[c];
                        row[c] -= sub;
                    }
                }
                let sub = factor * xk;
                rhs[r] -= sub;
            }
        }
        // Back substitution over U's recorded nonzeros.
        for k in (0..n).rev() {
            let row = &a[k * n..(k + 1) * n];
            let mut xk = rhs[k];
            for &c in &u_cols[u_start[k]..u_start[k + 1]] {
                let sub = row[c] * rhs[c];
                xk -= sub;
            }
            rhs[k] = xk / row[k];
        }
        if any_bad(rhs) {
            return Err(LinearError::NotFinite);
        }
        Ok(())
    }

    /// Computes `A·x` (used by tests and residual checks).
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let n = self.n;
        self.data
            .chunks_exact(n)
            .map(|row| {
                let mut acc = T::ZERO;
                for (a, b) in row.iter().zip(x) {
                    acc += *a * *b;
                }
                acc
            })
            .collect()
    }
}

/// `true` if any value is NaN/∞.
///
/// `v - v` is `+0` for every finite `v` and NaN otherwise, and a NaN
/// survives every sum, so summing the differences finds a bad value
/// without a branch per entry; eight independent sums keep the adds off
/// one serial dependency chain.
// `v - v` is the probe, not a slip.
#[allow(clippy::eq_op)]
fn any_bad<T: Scalar>(values: &[T]) -> bool {
    let mut sums = [T::ZERO; 8];
    let chunks = values.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (sum, &v) in sums.iter_mut().zip(chunk) {
            *sum += v - v;
        }
    }
    let mut total = T::ZERO;
    for &v in tail {
        total += v - v;
    }
    for sum in sums {
        total += sum;
    }
    total.is_bad()
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.n + c]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.n + c]
    }
}

#[cfg(test)]
mod dense_reference;

#[cfg(test)]
mod tests {
    use super::dense_reference::{dense_solve, mna_like, parity, Fixture, SplitMix};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn complex_basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).norm() < 1e-12);
    }

    #[test]
    fn complex_recip_extremes() {
        let tiny = Complex::new(1e-200, 1e-200);
        let r = tiny.recip();
        assert!((r * tiny - Complex::ONE).norm() < 1e-10);
        let skew = Complex::new(1e150, 1.0);
        assert!(!(skew.recip()).is_bad());
    }

    #[test]
    fn complex_norm_and_arg() {
        let z = Complex::new(0.0, 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert_eq!(z.norm(), 2.0);
        assert_eq!(z.conj(), Complex::new(0.0, -2.0));
    }

    #[test]
    fn solve_identity() {
        let mut m = Matrix::<f64>::zero(3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // a11 = 0 forces a row swap.
        let mut m = Matrix::<f64>::zero(2);
        m[(0, 0)] = 0.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 0.0;
        let x = m.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn solve_singular_reports_error() {
        let mut m = Matrix::<f64>::zero(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        assert!(matches!(
            m.solve(&[1.0, 2.0]),
            Err(LinearError::Singular { .. })
        ));
    }

    #[test]
    fn solve_dimension_mismatch() {
        let m = Matrix::<f64>::zero(2);
        assert_eq!(m.solve(&[1.0]), Err(LinearError::DimensionMismatch));
    }

    #[test]
    fn solve_rejects_nan() {
        let mut m = Matrix::<f64>::zero(1);
        m[(0, 0)] = f64::NAN;
        assert_eq!(m.solve(&[1.0]), Err(LinearError::NotFinite));
    }

    #[test]
    fn solve_complex_system() {
        // (1+j)·x = 2j  =>  x = 2j/(1+j) = 1+j
        let mut m = Matrix::<Complex>::zero(1);
        m[(0, 0)] = Complex::new(1.0, 1.0);
        let x = m.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, 1.0)).norm() < 1e-12);
    }

    #[test]
    fn mul_vec_matches_solution() {
        let mut m = Matrix::<f64>::zero(3);
        let entries = [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 5.0),
        ];
        for (r, c, v) in entries {
            m[(r, c)] = v;
        }
        let b = [1.0, 2.0, 3.0];
        let x = m.solve(&b).unwrap();
        let back = m.mul_vec(&x);
        for (bi, yi) in b.iter().zip(back.iter()) {
            assert!((bi - yi).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_cancellation_is_skipped_bit_for_bit() {
        // Column 0 pivots on row 1 (factor 0.5 for row 0), which cancels
        // entry (1, 1) to an exact zero; column 1 then pivots on the last
        // row and the cancelled row is skipped.
        let mut m = Matrix::<f64>::zero(3);
        for (r, row) in [[1.0, 2.0, 3.0], [2.0, 4.0, 7.0], [0.0, 1.0, 1.0]]
            .iter()
            .enumerate()
        {
            for (c, v) in row.iter().enumerate() {
                m[(r, c)] = *v;
            }
        }
        let b = [1.0, 2.0, 3.0];
        parity(&m, &b).unwrap();
        let mut lu = m.clone();
        let mut x = b;
        lu.solve_in_place(&mut x).unwrap();
        assert_eq!(x.to_vec(), dense_solve(&m, &b).unwrap());
        // U's recorded structure: row 0 {1, 2}, row 1 {2}, row 2 {}.
        assert_eq!(lu.u_cols, vec![1, 2, 2]);
        assert_eq!(lu.u_start, vec![0, 2, 3, 3]);
    }

    #[test]
    fn overflow_nan_factor_updates_every_column() {
        // Finite inputs whose elimination overflows to ∞ and then to a NaN
        // factor: `NaN · 0` must reach the pivot row's zero columns too,
        // or the kernel reports `NotFinite` where dense LU is singular.
        let rows = [
            [0.0, 0.0, 2.0, 0.0],
            [2.0, 1.0, -1e308, 2.0],
            [2.0, 0.0, 1e308, 0.0],
            [2.0, 0.0, 1.5e308, -1e308],
        ];
        let mut m = Matrix::<f64>::zero(4);
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                m[(r, c)] = *v;
            }
        }
        let b = [1.0, 0.0, 0.0, 1.0];
        assert_eq!(m.solve(&b), Err(LinearError::Singular { step: 3 }));
        parity(&m, &b).unwrap();
    }

    #[test]
    fn negative_zero_input_may_flip_the_sign_of_a_zero() {
        // The documented limit of skipping: the reference subtracts
        // 0·(−1) = −0 from b₀ = −0 and gets +0; the kernel skips it.
        let mut m = Matrix::<f64>::zero(2);
        m[(0, 0)] = 1.0;
        m[(1, 1)] = 1.0;
        let b = [-0.0, -1.0];
        let want = dense_solve(&m, &b).unwrap();
        let got = m.solve(&b).unwrap();
        assert_eq!(want, got);
        assert_eq!(want[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(got[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn reused_matrix_factors_without_growing_its_scratch() {
        let (m, b) = mna_like::<f64>(30, &mut SplitMix(7));
        let mut work = m.clone();
        let mut x = b.clone();
        let first = work.solve_in_place(&mut x);
        let capacities = |m: &Matrix<f64>| {
            (
                m.u_cols.capacity(),
                m.u_start.capacity(),
                m.elim_rows.capacity(),
            )
        };
        let caps = capacities(&work);
        for _ in 0..3 {
            work.clear();
            for r in 0..30 {
                for c in 0..30 {
                    work.stamp(r, c, m[(r, c)]);
                }
            }
            x.copy_from_slice(&b);
            assert_eq!(work.solve_in_place(&mut x), first);
            assert_eq!(capacities(&work), caps);
        }
    }

    #[test]
    fn mna_generator_covers_swaps_and_singular_systems() {
        let (mut zero_diagonal, mut singular, mut solved) = (0, 0, 0);
        for seed in 0..200 {
            let (m, b) = mna_like::<f64>(1 + seed as usize % 40, &mut SplitMix(seed));
            zero_diagonal += usize::from((0..m.dim()).any(|i| m[(i, i)] == 0.0));
            match dense_solve(&m, &b) {
                Ok(_) => solved += 1,
                Err(LinearError::Singular { .. }) => singular += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            zero_diagonal > 100,
            "{zero_diagonal} systems with a zero diagonal"
        );
        assert!(
            singular > 5 && solved > 150,
            "{singular} singular, {solved} solved"
        );
    }

    /// Puts NaN, +∞ or −∞ into `m` or `b` at a position picked by `rng`.
    fn poison<T: Fixture>(m: &mut Matrix<T>, b: &mut [T], rng: &mut SplitMix) {
        let bad = T::real([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)]);
        let n = m.dim();
        if rng.below(2) == 0 {
            m[(rng.below(n), rng.below(n))] = bad;
        } else {
            b[rng.below(n)] = bad;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On sparse, pivoting MNA-like systems the kernel returns exactly
        /// the reference's bits, or the reference's error.
        #[test]
        fn kernel_matches_dense_reference_real(n in 1usize..=80, seed in any::<u64>()) {
            let (m, b) = mna_like::<f64>(n, &mut SplitMix(seed));
            let checked = parity(&m, &b);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }

        #[test]
        fn kernel_matches_dense_reference_complex(n in 1usize..=80, seed in any::<u64>()) {
            let (m, b) = mna_like::<Complex>(n, &mut SplitMix(seed));
            let checked = parity(&m, &b);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }

        /// A singular column reports the reference's step.
        #[test]
        fn singular_step_matches_reference(n in 2usize..=40, seed in any::<u64>()) {
            let mut rng = SplitMix(seed);
            let (mut m, b) = mna_like::<f64>(n, &mut rng);
            let dead = rng.below(n);
            for r in 0..n {
                m[(r, dead)] = 0.0;
            }
            let got = m.solve(&b);
            prop_assert!(matches!(got, Err(LinearError::Singular { step }) if step <= dead));
            let checked = parity(&m, &b);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }

        /// NaN/∞ anywhere in A or b is `NotFinite`, even when an all-zero
        /// column would make an earlier elimination step singular.
        #[test]
        fn non_finite_input_wins_over_singularity(n in 2usize..=40, seed in any::<u64>()) {
            let mut rng = SplitMix(seed);
            let (mut m, mut b) = mna_like::<f64>(n, &mut rng);
            let (mut mc, mut bc) = mna_like::<Complex>(n, &mut rng);
            if rng.below(2) == 0 {
                for r in 0..n {
                    m[(r, 0)] = 0.0;
                    mc[(r, 0)] = Complex::ZERO;
                }
            }
            poison(&mut m, &mut b, &mut rng);
            poison(&mut mc, &mut bc, &mut rng);
            prop_assert_eq!(m.solve(&b), Err(LinearError::NotFinite));
            prop_assert_eq!(mc.solve(&bc), Err(LinearError::NotFinite));
            let checked = parity(&m, &b).and_then(|()| parity(&mc, &bc));
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }

        #[test]
        fn dimension_mismatch_matches_reference(n in 1usize..=20, longer in any::<bool>()) {
            let (m, mut b) = mna_like::<f64>(n, &mut SplitMix(n as u64));
            if longer {
                b.push(1.0);
            } else {
                b.pop();
            }
            prop_assert_eq!(m.solve(&b), Err(LinearError::DimensionMismatch));
            let checked = parity(&m, &b);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}
