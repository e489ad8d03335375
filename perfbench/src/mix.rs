//! The seeded request mix of the `serve_mixed` workload.
//!
//! Arrivals are open loop at a fixed rate. The mix is stratified in blocks
//! of [`BLOCK_LEN`] consecutive requests: each block holds exactly the
//! [`WARM`] counts in shuffled order around the [`COLD`] requests, which sit
//! at fixed, evenly spaced positions so two cold `ota5t` runs never overlap.
//! A run of `k` blocks always uses the same `k` block patterns and the seed
//! decides the order they arrive in. Two seeds thus differ in order, never
//! in how much cold work a run carries or how the warm requests around it
//! are arranged, which keeps the latency percentiles steady across seeds.
//!
//! The shares also decide where the percentiles fall. Latency clusters by
//! kind: warm `cs_amp` is fastest, then cold `cs_amp`, warm `ota5t`, warm
//! VCO and, an order of magnitude above, cold `ota5t`. A percentile that
//! falls on the border of two clusters jumps between them from run to run,
//! so the shares put the median well inside the warm `ota5t` cluster
//! (cumulative shares 33%, 37%, 70%) and the 95th percentile in the middle
//! of the cold `ota5t` one (the top 10%).

use std::time::Duration;

use crate::circuits::Ckt;
use crate::util::Rng;

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A repeat on the primed tenant: every evaluation is a cache hit.
    Warm(Ckt),
    /// A first request from a fresh tenant: every evaluation is a miss
    /// and a store.
    Cold(Ckt),
}

/// Warm requests per block: cs_amp 33%, ota5t 33%, vco 20% of the block.
pub const WARM: [(Ckt, usize); 3] = [(Ckt::CsAmp, 10), (Ckt::Ota, 10), (Ckt::Vco, 6)];

/// Cold requests per block, each at its position in the block: `ota5t`
/// 10%, `cs_amp` 3%.
pub const COLD: [(usize, Ckt); 4] = [(0, Ckt::Ota), (10, Ckt::Ota), (15, Ckt::CsAmp), (20, Ckt::Ota)];

/// Requests per block: the warm ones plus the cold ones.
pub const BLOCK_LEN: usize = 30;

/// Tenant primed during setup; warm requests run under it.
pub const PRIMED_TENANT: &str = "primed";

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, from the start of the timed phase.
    pub due: Duration,
    /// Circuit and cache temperature.
    pub kind: Kind,
    /// Tenant the request runs under.
    pub tenant: String,
}

/// One block of the mix in arrival order.
fn block(rng: &mut Rng) -> Vec<Kind> {
    let mut warm: Vec<Kind> = WARM
        .iter()
        .flat_map(|&(c, count)| std::iter::repeat_n(Kind::Warm(c), count))
        .collect();
    rng.shuffle(&mut warm);
    // COLD is in ascending position order, so each insert lands in place.
    for &(at, c) in &COLD {
        warm.insert(at, Kind::Cold(c));
    }
    warm
}

/// Seed of the block patterns, fixed so every run draws the same ones.
const PATTERN_SEED: u64 = 0x5e7e;

/// The request schedule for `seconds` of arrivals at `rate` requests per
/// second: a pure function of `seed`.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate * seconds).floor().max(1.0) as usize;
    let mut patterns = Rng::new(PATTERN_SEED);
    let mut blocks: Vec<Vec<Kind>> = (0..n.div_ceil(BLOCK_LEN))
        .map(|_| block(&mut patterns))
        .collect();
    Rng::new(seed).shuffle(&mut blocks);
    let mut kinds: Vec<Kind> = blocks.concat();
    kinds.truncate(n);
    let mut fresh = 0usize;
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let tenant = match kind {
                Kind::Warm(_) => PRIMED_TENANT.to_string(),
                Kind::Cold(_) => {
                    fresh += 1;
                    format!("fresh-{fresh}")
                }
            };
            Arrival {
                due: Duration::from_secs_f64(i as f64 / rate),
                kind,
                tenant,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        assert_eq!(schedule(7, 6.0, 20.0), schedule(7, 6.0, 20.0));
    }

    #[test]
    fn schedules_differ_across_seeds() {
        let a = schedule(1, 6.0, 20.0);
        let b = schedule(2, 6.0, 20.0);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn mix_holds_its_shares_in_every_block() {
        let s = schedule(3, 6.0, 20.0);
        assert_eq!(s.len(), 120);
        for block in s.chunks(BLOCK_LEN) {
            let count = |f: &dyn Fn(&Kind) -> bool| block.iter().filter(|a| f(&a.kind)).count();
            assert_eq!(count(&|k| *k == Kind::Warm(Ckt::CsAmp)), 10);
            assert_eq!(count(&|k| *k == Kind::Warm(Ckt::Ota)), 10);
            assert_eq!(count(&|k| *k == Kind::Warm(Ckt::Vco)), 6);
            for &(at, c) in &COLD {
                assert_eq!(block[at].kind, Kind::Cold(c));
            }
            assert_eq!(count(&|k| matches!(k, Kind::Cold(_))), 4);
        }
        // Warm requests share the primed tenant; cold ones never repeat one.
        let mut fresh: Vec<&str> = s
            .iter()
            .filter(|a| matches!(a.kind, Kind::Cold(_)))
            .map(|a| a.tenant.as_str())
            .collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
        assert!(s
            .iter()
            .filter(|a| matches!(a.kind, Kind::Warm(_)))
            .all(|a| a.tenant == PRIMED_TENANT));
    }

    #[test]
    fn arrivals_are_evenly_spaced_at_the_rate() {
        let s = schedule(5, 4.0, 2.0);
        let due: Vec<f64> = s.iter().map(|a| a.due.as_secs_f64()).collect();
        assert_eq!(due, vec![0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]);
    }
}
