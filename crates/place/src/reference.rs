//! Parity fixtures for the annealer: the loop `Placer::place` ran before
//! the incremental cost (the full cost recomputed and a cloned candidate
//! built on every move), kept verbatim as the bit-for-bit reference, plus
//! a seeded generator of random placement problems.
//!
//! Compiled into the unit tests of `prima-place` and included by path from
//! `tests/invariants.rs`; each includer has `Block`, `Net`, `Placement`,
//! `PlacementProblem`, `PlaceError` and `Placer` in scope. Only their
//! public API is used here.

use super::*;
use prima_geom::{Nm, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The former `Placer::place`, verbatim except that it reads the problem
/// through its accessors, takes the seed explicitly and also returns the
/// best placement's cost.
pub fn reference_place(
    placer: &Placer,
    seed: u64,
    problem: &PlacementProblem,
) -> Result<(Placement, f64), PlaceError> {
    let n = problem.blocks().len();
    if n == 0 {
        return Err(PlaceError::BadProblem {
            reason: "no blocks".to_string(),
        });
    }
    let mut pair_variants = Vec::with_capacity(problem.symmetry().len());
    for &(a, b) in problem.symmetry() {
        match matching_variants(problem, a, b) {
            Some(v) => pair_variants.push((a, b, v)),
            None => {
                return Err(PlaceError::BadProblem {
                    reason: format!(
                        "symmetry pair ({}, {}) has no matching variant sizes",
                        problem.blocks()[a].name,
                        problem.blocks()[b].name
                    ),
                })
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let moves_per_temp = placer.moves_per_temp.max(60 * n);

    let grid: Nm = problem
        .blocks()
        .iter()
        .flat_map(|b| b.variants.iter().map(|&(w, h)| w.max(h)))
        .max()
        .unwrap_or(1000)
        + 200;
    let cols = (n as f64).sqrt().ceil() as usize;
    let mut state = Placement {
        positions: (0..n)
            .map(|i| Point::new((i % cols) as Nm * grid, (i / cols) as Nm * grid))
            .collect(),
        variants: vec![0; n],
    };
    for &(a, b, (va, vb)) in &pair_variants {
        state.variants[a] = va;
        state.variants[b] = vb;
        enforce_pair(problem, &mut state, a, b);
    }

    let mut cost = reference_cost(placer, problem, &state);
    let mut best = state.clone();
    let mut best_cost = cost;
    let mut temp = placer.t0;

    for _ in 0..placer.temp_steps {
        for _ in 0..moves_per_temp {
            let candidate = propose(problem, &state, &mut rng, grid);
            let c = reference_cost(placer, problem, &candidate);
            let accept = c <= cost || {
                let p = ((cost - c) / temp).exp();
                rng.gen::<f64>() < p
            };
            if accept {
                state = candidate;
                cost = c;
                if c < best_cost {
                    best = state.clone();
                    best_cost = c;
                }
            }
        }
        temp *= placer.cooling;
    }

    let overlaps = best.overlap_pairs(problem);
    if overlaps > 0 {
        return Err(PlaceError::Illegal { overlaps });
    }
    Ok((best, best_cost))
}

/// The former annealing cost, recomputed in full: HPWL + area + overlap
/// penalty, with the overlap summed in `f64` over every block pair.
pub fn reference_cost(placer: &Placer, problem: &PlacementProblem, p: &Placement) -> f64 {
    let hpwl = p.hpwl(problem) as f64;
    let bb = p.bbox(problem);
    let area = (bb.width() as f64) * (bb.height() as f64);
    let mut overlap = 0.0;
    let n = problem.blocks().len();
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(x) = p.rect(problem, i).intersection(&p.rect(problem, j)) {
                overlap += (x.width() as f64) * (x.height() as f64);
            }
        }
    }
    hpwl + placer.area_weight * area.sqrt() + 50.0 * overlap.sqrt() * (1.0 + overlap.sqrt())
}

fn propose(problem: &PlacementProblem, state: &Placement, rng: &mut StdRng, grid: Nm) -> Placement {
    let mut cand = state.clone();
    let n = problem.blocks().len();
    let kind = rng.gen_range(0..4);
    let i = rng.gen_range(0..n);
    match kind {
        0 => {
            let dx = rng.gen_range(-2 * grid..=2 * grid);
            let dy = rng.gen_range(-2 * grid..=2 * grid);
            cand.positions[i] = cand.positions[i].offset(dx, dy);
        }
        1 => {
            let j = rng.gen_range(0..n);
            cand.positions.swap(i, j);
        }
        2 => {
            let nv = problem.blocks()[i].variants.len();
            if nv > 1 {
                cand.variants[i] = rng.gen_range(0..nv);
            }
        }
        _ => {
            let dx = rng.gen_range(-grid / 4..=grid / 4);
            let dy = rng.gen_range(-grid / 4..=grid / 4);
            cand.positions[i] = cand.positions[i].offset(dx, dy);
        }
    }
    for &(a, b) in problem.symmetry() {
        if let Some((va, vb)) = matching_variants_including(problem, a, b, cand.variants[a]) {
            cand.variants[a] = va;
            cand.variants[b] = vb;
        }
        enforce_pair(problem, &mut cand, a, b);
    }
    cand
}

fn enforce_pair(problem: &PlacementProblem, p: &mut Placement, a: usize, b: usize) {
    let (wa, _) = problem.blocks()[a].variants[p.variants[a]];
    let gap = 200;
    p.positions[b] = Point::new(p.positions[a].x + wa + gap, p.positions[a].y);
}

fn matching_variants(problem: &PlacementProblem, a: usize, b: usize) -> Option<(usize, usize)> {
    for (ia, va) in problem.blocks()[a].variants.iter().enumerate() {
        if let Some(ib) = problem.blocks()[b].variants.iter().position(|vb| vb == va) {
            return Some((ia, ib));
        }
    }
    None
}

fn matching_variants_including(
    problem: &PlacementProblem,
    a: usize,
    b: usize,
    want_a: usize,
) -> Option<(usize, usize)> {
    let va = problem.blocks()[a].variants[want_a];
    if let Some(ib) = problem.blocks()[b].variants.iter().position(|vb| *vb == va) {
        return Some((want_a, ib));
    }
    matching_variants(problem, a, b)
}

/// A seeded random placement problem with `n` blocks (`n ≥ 2`).
///
/// Blocks have one to four footprint variants from 200 nm to 6 µm a side,
/// duplicated sizes included. Up to `n / 4` disjoint symmetry pairs between
/// arbitrary (not adjacent) blocks share at least one size, usually at a
/// different variant index on each side; the annealer's mirror step moves
/// the right block next to the left one, so the start often overlaps.
/// About one pair in a hundred has no shared size, which the placer
/// rejects.
/// Nets have one to six pins drawn with replacement: single-pin nets and
/// duplicate pins occur, and some blocks touch no net.
pub fn random_problem(n: usize, seed: u64) -> PlacementProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = |rng: &mut StdRng| -> (Nm, Nm) {
        (
            rng.gen_range(1..=30) as Nm * 200,
            rng.gen_range(1..=30) as Nm * 200,
        )
    };
    let mut variants: Vec<Vec<(Nm, Nm)>> = (0..n)
        .map(|_| {
            let count = rng.gen_range(1..=4);
            let mut v: Vec<(Nm, Nm)> = (0..count).map(|_| size(&mut rng)).collect();
            if count > 1 && rng.gen_range(0..3) == 0 {
                // A rotated copy of the first footprint, or an exact duplicate.
                let (w, h) = v[0];
                v[count - 1] = if rng.gen_range(0..2) == 0 {
                    (h, w)
                } else {
                    (w, h)
                };
            }
            v
        })
        .collect();

    let mut free: Vec<usize> = (0..n).collect();
    let mut pairs = Vec::new();
    for _ in 0..rng.gen_range(0..=n / 4) {
        let a = free.swap_remove(rng.gen_range(0..free.len()));
        let b = free.swap_remove(rng.gen_range(0..free.len()));
        let mut vb: Vec<(Nm, Nm)> = (0..rng.gen_range(1..=3)).map(|_| size(&mut rng)).collect();
        if rng.gen_range(0..100) != 0 {
            let shared = variants[a][rng.gen_range(0..variants[a].len())];
            let at = rng.gen_range(0..vb.len());
            vb[at] = shared;
        }
        variants[b] = vb;
        pairs.push((a, b));
    }

    let mut p = PlacementProblem::new();
    for (i, v) in variants.into_iter().enumerate() {
        p.add_block(Block::new(&format!("b{i}"), v));
    }
    for (a, b) in pairs {
        p.add_symmetry(a, b);
    }
    for k in 0..rng.gen_range(1..=2 * n) {
        let pins: Vec<usize> = (0..rng.gen_range(1..=6))
            .map(|_| rng.gen_range(0..n))
            .collect();
        p.add_net(Net::new(&format!("n{k}"), pins));
    }
    p
}
