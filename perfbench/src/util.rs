//! Small dependency-free helpers: statistics, a seeded generator, an
//! output digest, and readers for the process counters under `/proc`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Linear-interpolated percentile (`p` in 0..=100) of `values`, the
/// "inclusive" definition (`numpy.percentile`'s default). `None` when
/// `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// SplitMix64: a tiny, well-mixed seeded generator. The benchmark derives
/// every seed-dependent input from one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64-bit digest over length-prefixed fields, so adjacent fields
/// can never run together.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds a string field.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Feeds an integer field.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds a byte string.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// fixes USER_HZ at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM` in kB, `Threads`).
pub fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Samples the OS thread count of this process every few milliseconds on
/// a background thread and keeps the maximum.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadSampler {
    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let now = status_field("Threads").unwrap_or(0.0) as u64;
        let peak = Arc::new(AtomicU64::new(now));
        let handle = {
            let (stop, peak) = (stop.clone(), peak.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(n) = status_field("Threads") {
                        peak.fetch_max(n as u64, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stops the sampler, waits for its thread, and returns the peak.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert!((percentile(&v, 95.0).unwrap() - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let v: Vec<f64> = (0..37).map(|i| ((i * 7919) % 101) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for p in 0..=100 {
            let x = percentile(&v, p as f64).unwrap();
            assert!(x >= last);
            last = x;
        }
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(status_field("Threads").unwrap() >= 1.0);
        let sampler = ThreadSampler::start();
        assert!(sampler.finish() >= 1);
    }
}
