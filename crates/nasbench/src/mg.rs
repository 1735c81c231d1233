//! NAS MG (multigrid), over MPI and in two ARMCI variants (paper Sec. 4.4).
//!
//! V-cycle over an `n³` grid, 3-D process decomposition. Every level visit
//! smooths/restricts/prolongates locally and exchanges ghost faces with the
//! six axis neighbors (`comm3`); face areas quarter at every coarser level,
//! so MG produces a *geometric ladder* of message sizes.
//!
//! Variants:
//! * `run_mg_mpi` — NPB 2.4-style `Irecv`/`Send`/`Wait` per axis,
//! * `MgVariant::ArmciBlocking` — `ARMCI_Put` per face, host-blocked,
//! * `MgVariant::ArmciNonBlocking` — `ARMCI_NbPut` issued for the next
//!   axis before working on the current axis's data (the optimization of
//!   Tipparaju et al. \[29\] whose overlap the paper quantifies at ~99 %).

use simarmci::Armci;
use simmpi::{Bytes, Mpi, Src, TagSel};

use crate::class::Class;
use crate::grid::{grid3, neighbor3};
use crate::model::{flops_ns, MG_POINT_FLOPS};

/// V-cycle iterations (NPB: 4 for A, 20 for B; scaled).
const ITERATIONS: usize = 2;

/// Which one-sided discipline the ARMCI variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MgVariant {
    /// One-sided blocking puts.
    ArmciBlocking,
    /// One-sided non-blocking puts issued a dimension ahead.
    ArmciNonBlocking,
}

/// Grid points per side.
fn n(class: Class) -> usize {
    match class {
        Class::S => 32,
        Class::W => 128,
        Class::A => 256,
        Class::B => 256,
    }
}

/// Number of multigrid levels (down to a 4³ global grid).
fn levels(class: Class) -> usize {
    (n(class).trailing_zeros() as usize).saturating_sub(1)
}

struct MgGeometry {
    dims: (usize, usize, usize),
    /// Local block dimensions at the finest level.
    local: [usize; 3],
    levels: usize,
    point_ns_finest: u64,
}

fn geometry(np: usize, class: Class) -> MgGeometry {
    let n = n(class);
    let dims = grid3(np);
    let local = [n / dims.0, n / dims.1, n / dims.2];
    let local_points = (local[0] * local[1] * local[2]) as f64;
    MgGeometry {
        dims,
        local,
        levels: levels(class),
        point_ns_finest: flops_ns(local_points * MG_POINT_FLOPS),
    }
}

/// Face bytes along `axis` at `level` (level 0 = finest): the product of
/// the two other local dimensions, coarsened, in f64.
fn face_bytes(g: &MgGeometry, axis: usize, level: usize) -> usize {
    let shrink = 1usize << level;
    let a = (g.local[(axis + 1) % 3] / shrink).max(1);
    let b = (g.local[(axis + 2) % 3] / shrink).max(1);
    a * b * 8
}

fn level_compute_ns(g: &MgGeometry, level: usize) -> u64 {
    (g.point_ns_finest >> (3 * level)).max(1_000)
}

/// The level visit order of one V-cycle: fine → coarse → fine.
fn v_cycle(levels: usize) -> Vec<usize> {
    let down = 0..levels;
    let up = (0..levels.saturating_sub(1)).rev();
    down.chain(up).collect()
}

/// Run the MPI variant.
pub(crate) fn run_mg_mpi(mpi: &mut Mpi, class: Class) {
    let g = geometry(mpi.nranks(), class);
    let me = mpi.rank();
    for iter in 0..ITERATIONS {
        for (visit, level) in v_cycle(g.levels).into_iter().enumerate() {
            let tag_base = ((iter * 1000 + visit) as u64) << 16;
            // comm3: exchange both faces along each axis, then smooth.
            for axis in 0..3 {
                let minus = neighbor3(me, g.dims, axis, -1);
                let plus = neighbor3(me, g.dims, axis, 1);
                let bytes = face_bytes(&g, axis, level);
                let buf = Bytes::from(vec![axis as u8; bytes]);
                let tag = tag_base + axis as u64 * 2;
                if plus == me {
                    continue; // single process along this axis
                }
                let r1 = mpi.irecv(Src::Rank(minus), TagSel::Is(tag));
                let r2 = mpi.irecv(Src::Rank(plus), TagSel::Is(tag + 1));
                mpi.send(plus, tag, &buf);
                mpi.send(minus, tag + 1, &buf);
                mpi.waitall(&[r1, r2]);
            }
            mpi.compute(level_compute_ns(&g, level));
        }
        mpi.allreduce(&[1.0], simmpi::ReduceOp::Sum);
    }
}

/// Run an ARMCI variant.
pub(crate) fn run_mg_armci(a: &mut Armci, class: Class, variant: MgVariant) {
    let g = geometry(a.nranks(), class);
    let me = a.rank();
    // Each (axis, direction) pair owns a disjoint ghost slot of the shared
    // segment, sized for the finest face: slot `2 * axis + dir`. Coarser
    // levels reuse their slot (ghost writes of different levels never
    // coexist within a V-cycle step).
    let slot = face_bytes(&g, 0, 0)
        .max(face_bytes(&g, 1, 0))
        .max(face_bytes(&g, 2, 0));
    let mem = a.malloc(6 * slot);
    a.barrier();

    for _ in 0..ITERATIONS {
        for level in v_cycle(g.levels) {
            let compute = level_compute_ns(&g, level);
            match variant {
                MgVariant::ArmciBlocking => {
                    // Update each dimension, then work on the data.
                    for axis in 0..3 {
                        let minus = neighbor3(me, g.dims, axis, -1);
                        let plus = neighbor3(me, g.dims, axis, 1);
                        if plus == me {
                            continue;
                        }
                        let bytes = face_bytes(&g, axis, level);
                        let buf = Bytes::from(vec![(axis + 1) as u8; bytes]);
                        a.put(&mem, plus, 2 * axis * slot, &buf);
                        a.put(&mem, minus, (2 * axis + 1) * slot, &buf);
                        a.barrier();
                        a.compute(compute / 3);
                    }
                }
                MgVariant::ArmciNonBlocking => {
                    // Issue the next dimension's update *before* working on
                    // the current dimension's data (Tipparaju et al.).
                    let mut pending = Vec::new();
                    for axis in 0..3 {
                        let minus = neighbor3(me, g.dims, axis, -1);
                        let plus = neighbor3(me, g.dims, axis, 1);
                        if plus != me {
                            let bytes = face_bytes(&g, axis, level);
                            let buf = Bytes::from(vec![(axis + 1) as u8; bytes]);
                            pending.push(a.nb_put(&mem, plus, 2 * axis * slot, &buf));
                            pending.push(a.nb_put(&mem, minus, (2 * axis + 1) * slot, &buf));
                        }
                        // Work on the *previous* dimension's data while the
                        // puts fly.
                        a.compute(compute / 3);
                    }
                    for h in pending {
                        a.wait(h);
                    }
                    a.barrier();
                }
            }
        }
        a.allreduce_sum(&[1.0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mg_levels_reach_coarse_grid() {
        assert_eq!(n(Class::A), 256);
        assert_eq!(levels(Class::A), 7); // 256 -> 4 in factor-of-two steps
        assert_eq!(n(Class::S), 32);
        assert_eq!(levels(Class::S), 4);
    }
}
