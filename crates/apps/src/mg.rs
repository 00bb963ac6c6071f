//! MG — the NAS multigrid kernel: V-cycles of a damped-Jacobi multigrid
//! solver for the 3-D Poisson problem with zero Dirichlet boundaries.
//!
//! Grids are z-major (`index = (z*n + y)*n + x`) and block-distributed
//! by z-planes, so each node's plane slab is homed locally and the
//! 7-point stencil fetches only the two halo planes from neighbours —
//! the paper's classic nearest-neighbour sharing pattern, with barriers
//! separating every sweep. Every loop moves whole x-rows through
//! `Dsm::read_slice` / `Dsm::write_slice`, issuing the row calls in the
//! order a per-element loop first touches each row (DESIGN.md §10).

use ccl_core::{ArrayHandle, Dsm};

use crate::common::{row_buffers, Checksum, SplitMix64};

/// MG problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct MgConfig {
    /// Finest grid extent per dimension (power of two).
    pub n: usize,
    /// Number of multigrid levels (level k has extent n >> k).
    pub levels: usize,
    /// Number of V-cycles.
    pub cycles: usize,
}

impl MgConfig {
    /// Harness-scale instance of the paper's data set (64^3 grid).
    pub fn paper() -> MgConfig {
        MgConfig {
            n: 64,
            levels: 3,
            cycles: 2,
        }
    }

    /// Tiny instance for tests.
    pub fn tiny() -> MgConfig {
        MgConfig {
            n: 8,
            levels: 2,
            cycles: 2,
        }
    }

    fn extent(&self, level: usize) -> usize {
        self.n >> level
    }

    fn points(&self, level: usize) -> usize {
        let e = self.extent(level);
        e * e * e
    }

    /// Shared pages needed: u, f, tmp arrays at every level.
    pub fn shared_pages(&self, page_size: usize) -> u32 {
        let mut pages = 0u32;
        for l in 0..self.levels {
            let per_array = (self.points(l) * 8).div_ceil(page_size) as u32 + 1;
            pages += 3 * per_array;
        }
        pages
    }
}

const OMEGA: f64 = 0.8;

#[inline]
fn idx(n: usize, x: usize, y: usize, z: usize) -> usize {
    (z * n + y) * n + x
}

/// Deterministic right-hand side at fine-grid point `(x,y,z)`.
pub fn rhs_value(n: usize, x: usize, y: usize, z: usize) -> f64 {
    let mut g = SplitMix64::new(0x3A6_0000 ^ idx(n, x, y, z) as u64);
    g.next_signed()
}

struct Level {
    u: ArrayHandle<f64>,
    f: ArrayHandle<f64>,
    tmp: ArrayHandle<f64>,
    n: usize,
}

/// z-plane range owned by `me` at a grid extent of `n` planes.
fn my_planes(n: usize, me: usize, nodes: usize) -> (usize, usize) {
    let per = n.div_ceil(nodes);
    let lo = (me * per).min(n);
    let hi = ((me + 1) * per).min(n);
    (lo, hi)
}

/// One damped-Jacobi sweep at `level`, reading the `src` generation of
/// u and writing the `dst` generation; one barrier per sweep (ping-pong
/// buffering, as the NAS code does). Interior points only (zero
/// Dirichlet boundary).
fn sweep(dsm: &mut Dsm, lv: &Level, src: bool, me: usize, nodes: usize) {
    let n = lv.n;
    let (from, to) = if src {
        (&lv.u, &lv.tmp)
    } else {
        (&lv.tmp, &lv.u)
    };
    let (zlo, zhi) = my_planes(n, me, nodes);
    let [mut c, mut s, mut nn, mut d, mut up, mut f, mut out, zeros] = row_buffers(n);
    for z in zlo..zhi {
        for y in 0..n {
            let i = idx(n, 0, y, z);
            if !(y > 0 && y < n - 1 && z > 0 && z < n - 1) {
                dsm.write_slice(to, i, &zeros);
                continue;
            }
            // The boundary point x = 0 is the row's first touch.
            dsm.write(to, i, 0.0);
            dsm.read_slice(from, i, &mut c);
            dsm.read_slice(from, idx(n, 0, y - 1, z), &mut s);
            dsm.read_slice(from, idx(n, 0, y + 1, z), &mut nn);
            dsm.read_slice(from, idx(n, 0, y, z - 1), &mut d);
            dsm.read_slice(from, idx(n, 0, y, z + 1), &mut up);
            dsm.read_slice(&lv.f, i, &mut f);
            for x in 1..n - 1 {
                let u = c[x];
                let nb = c[x - 1] + c[x + 1] + s[x] + nn[x] + d[x] + up[x];
                let r = f[x] - (6.0 * u - nb);
                out[x] = u + OMEGA * r / 6.0;
            }
            // `out[n - 1]` stays the zero of the other boundary point.
            dsm.write_slice(to, i + 1, &out[1..]);
        }
        dsm.charge_flops(12 * n as u64 * n as u64);
    }
    dsm.barrier();
}

/// Two ping-ponged Jacobi sweeps (u -> tmp -> u), leaving the result in
/// `u`: the unit of smoothing used at every level.
fn smooth_pair(dsm: &mut Dsm, lv: &Level, me: usize, nodes: usize) {
    sweep(dsm, lv, true, me, nodes);
    sweep(dsm, lv, false, me, nodes);
}

/// Residual r = f - A u of `fine`, injected as the RHS of `coarse`.
fn restrict(dsm: &mut Dsm, fine: &Level, coarse: &Level, me: usize, nodes: usize) {
    let nc = coarse.n;
    let nf = fine.n;
    let (zlo, zhi) = my_planes(nc, me, nodes);
    let [mut c, mut s, mut nn, mut d, mut up, mut f] = row_buffers(nf);
    let [mut r, zeros] = row_buffers(nc);
    for zc in zlo..zhi {
        for yc in 0..nc {
            let (y, z) = (yc * 2, zc * 2);
            let ci = idx(nc, 0, yc, zc);
            if !(y > 0 && y < nf - 1 && z > 0 && z < nf - 1) {
                dsm.write_slice(&coarse.f, ci, &zeros);
                dsm.write_slice(&coarse.u, ci, &zeros);
                continue;
            }
            // The boundary point xc = 0 is both coarse rows' first touch.
            dsm.write(&coarse.f, ci, 0.0);
            dsm.write_slice(&coarse.u, ci, &zeros);
            let i = idx(nf, 0, y, z);
            dsm.read_slice(&fine.u, i, &mut c);
            dsm.read_slice(&fine.u, idx(nf, 0, y - 1, z), &mut s);
            dsm.read_slice(&fine.u, idx(nf, 0, y + 1, z), &mut nn);
            dsm.read_slice(&fine.u, idx(nf, 0, y, z - 1), &mut d);
            dsm.read_slice(&fine.u, idx(nf, 0, y, z + 1), &mut up);
            dsm.read_slice(&fine.f, i, &mut f);
            for (xc, rc) in r.iter_mut().enumerate().skip(1) {
                let x = xc * 2;
                let u = c[x];
                let nb = c[x - 1] + c[x + 1] + s[x] + nn[x] + d[x] + up[x];
                *rc = f[x] - (6.0 * u - nb);
            }
            dsm.write_slice(&coarse.f, ci + 1, &r[1..]);
        }
        dsm.charge_flops(12 * nc as u64 * nc as u64);
    }
    dsm.barrier();
}

/// Piecewise-constant prolongation: add the coarse correction to every
/// fine point of its coarse cell.
fn prolongate(dsm: &mut Dsm, coarse: &Level, fine: &Level, me: usize, nodes: usize) {
    let nf = fine.n;
    let nc = coarse.n;
    let (zlo, zhi) = my_planes(nf, me, nodes);
    let [mut corr] = row_buffers(nc);
    let [mut u] = row_buffers(nf);
    for z in zlo..zhi {
        for y in 0..nf {
            let c = idx(nc, 0, (y / 2).min(nc - 1), (z / 2).min(nc - 1));
            dsm.read_slice(&coarse.u, c, &mut corr);
            // A fine row whose coarse row is all zero is not touched.
            if corr.iter().all(|&k| k == 0.0) {
                continue;
            }
            let i = idx(nf, 0, y, z);
            dsm.read_slice(&fine.u, i, &mut u);
            for x in 0..nf {
                let k = corr[(x / 2).min(nc - 1)];
                if k != 0.0 {
                    u[x] += k;
                }
            }
            dsm.write_slice(&fine.u, i, &u);
        }
        dsm.charge_flops(2 * nf as u64 * nf as u64);
    }
    dsm.barrier();
}

/// Run MG on the DSM; every node returns the same digest.
pub fn run(dsm: &mut Dsm, cfg: &MgConfig) -> u64 {
    let me = dsm.me();
    let nodes = dsm.nodes();
    assert!(cfg.extent(cfg.levels - 1) >= 4, "coarsest grid too small");
    let levels: Vec<Level> = (0..cfg.levels)
        .map(|l| Level {
            u: dsm.alloc_blocked::<f64>(cfg.points(l)),
            f: dsm.alloc_blocked::<f64>(cfg.points(l)),
            tmp: dsm.alloc_blocked::<f64>(cfg.points(l)),
            n: cfg.extent(l),
        })
        .collect();

    // Initialize the fine RHS (own planes).
    let n = cfg.n;
    let (zlo, zhi) = my_planes(n, me, nodes);
    let [mut rhs, zeros] = row_buffers(n);
    for z in zlo..zhi {
        for y in 0..n {
            for (x, v) in rhs.iter_mut().enumerate() {
                *v = rhs_value(n, x, y, z);
            }
            dsm.write_slice(&levels[0].f, idx(n, 0, y, z), &rhs);
            dsm.write_slice(&levels[0].u, idx(n, 0, y, z), &zeros);
        }
    }
    dsm.barrier();

    for _cycle in 0..cfg.cycles {
        // Down-sweep.
        for l in 0..cfg.levels - 1 {
            smooth_pair(dsm, &levels[l], me, nodes);
            restrict(dsm, &levels[l], &levels[l + 1], me, nodes);
        }
        // Coarsest solve: extra smoothing.
        for _ in 0..2 {
            smooth_pair(dsm, &levels[cfg.levels - 1], me, nodes);
        }
        // Up-sweep.
        for l in (0..cfg.levels - 1).rev() {
            prolongate(dsm, &levels[l + 1], &levels[l], me, nodes);
            smooth_pair(dsm, &levels[l], me, nodes);
        }
    }

    let mut sum = Checksum::new();
    let pts = cfg.points(0);
    let stride = (pts / 64).max(1);
    let mut i = 0;
    while i < pts {
        sum.push_f64(dsm.read(&levels[0].u, i));
        i += stride;
    }
    dsm.barrier();
    sum.digest()
}

/// Serial reference with identical arithmetic.
pub fn reference_digest(cfg: &MgConfig) -> u64 {
    struct SLevel {
        u: Vec<f64>,
        f: Vec<f64>,
        n: usize,
    }
    let mut levels: Vec<SLevel> = (0..cfg.levels)
        .map(|l| SLevel {
            u: vec![0.0; cfg.points(l)],
            f: vec![0.0; cfg.points(l)],
            n: cfg.extent(l),
        })
        .collect();
    let n = cfg.n;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                levels[0].f[idx(n, x, y, z)] = rhs_value(n, x, y, z);
            }
        }
    }
    fn s_smooth(lv: &mut SLevel) {
        let n = lv.n;
        let mut tmp = vec![0.0; lv.u.len()];
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = idx(n, x, y, z);
                    let u = lv.u[i];
                    let nb = lv.u[idx(n, x - 1, y, z)]
                        + lv.u[idx(n, x + 1, y, z)]
                        + lv.u[idx(n, x, y - 1, z)]
                        + lv.u[idx(n, x, y + 1, z)]
                        + lv.u[idx(n, x, y, z - 1)]
                        + lv.u[idx(n, x, y, z + 1)];
                    let r = lv.f[i] - (6.0 * u - nb);
                    tmp[i] = u + OMEGA * r / 6.0;
                }
            }
        }
        lv.u = tmp;
    }
    for _ in 0..cfg.cycles {
        for l in 0..cfg.levels - 1 {
            s_smooth(&mut levels[l]);
            s_smooth(&mut levels[l]);
            let nf = levels[l].n;
            let nc = levels[l + 1].n;
            let mut coarse_f = vec![0.0; levels[l + 1].f.len()];
            for zc in 0..nc {
                for yc in 0..nc {
                    for xc in 0..nc {
                        let (x, y, z) = (xc * 2, yc * 2, zc * 2);
                        let interior =
                            x > 0 && x < nf - 1 && y > 0 && y < nf - 1 && z > 0 && z < nf - 1;
                        if interior {
                            let i = idx(nf, x, y, z);
                            let u = levels[l].u[i];
                            let nb = levels[l].u[idx(nf, x - 1, y, z)]
                                + levels[l].u[idx(nf, x + 1, y, z)]
                                + levels[l].u[idx(nf, x, y - 1, z)]
                                + levels[l].u[idx(nf, x, y + 1, z)]
                                + levels[l].u[idx(nf, x, y, z - 1)]
                                + levels[l].u[idx(nf, x, y, z + 1)];
                            coarse_f[idx(nc, xc, yc, zc)] = levels[l].f[i] - (6.0 * u - nb);
                        }
                    }
                }
            }
            levels[l + 1].f = coarse_f;
            levels[l + 1].u.iter_mut().for_each(|v| *v = 0.0);
        }
        for _ in 0..4 {
            s_smooth(&mut levels[cfg.levels - 1]);
        }
        for l in (0..cfg.levels - 1).rev() {
            let nf = levels[l].n;
            let nc = levels[l + 1].n;
            for z in 0..nf {
                for y in 0..nf {
                    for x in 0..nf {
                        let c = idx(
                            nc,
                            (x / 2).min(nc - 1),
                            (y / 2).min(nc - 1),
                            (z / 2).min(nc - 1),
                        );
                        let corr = levels[l + 1].u[c];
                        if corr != 0.0 {
                            levels[l].u[idx(nf, x, y, z)] += corr;
                        }
                    }
                }
            }
            s_smooth(&mut levels[l]);
            s_smooth(&mut levels[l]);
        }
    }
    let mut sum = Checksum::new();
    let pts = cfg.points(0);
    let stride = (pts / 64).max(1);
    let mut i = 0;
    while i < pts {
        sum.push_f64(levels[0].u[i]);
        i += stride;
    }
    sum.digest()
}

/// Residual L2 norm of the serial solve (convergence sanity check).
pub fn reference_residual_norm(cfg: &MgConfig, cycles: usize) -> f64 {
    let n = cfg.n;
    let mut u = vec![0.0f64; cfg.points(0)];
    let mut f = vec![0.0f64; cfg.points(0)];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                f[idx(n, x, y, z)] = rhs_value(n, x, y, z);
            }
        }
    }
    // Plain Jacobi sweeps stand in for the V-cycle here: we only need a
    // monotone-ish residual to sanity-check the operator.
    for _ in 0..cycles * 8 {
        let mut tmp = vec![0.0; u.len()];
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = idx(n, x, y, z);
                    let nb = u[idx(n, x - 1, y, z)]
                        + u[idx(n, x + 1, y, z)]
                        + u[idx(n, x, y - 1, z)]
                        + u[idx(n, x, y + 1, z)]
                        + u[idx(n, x, y, z - 1)]
                        + u[idx(n, x, y, z + 1)];
                    let r = f[i] - (6.0 * u[i] - nb);
                    tmp[i] = u[i] + OMEGA * r / 6.0;
                }
            }
        }
        u = tmp;
    }
    let mut norm = 0.0;
    for z in 1..n - 1 {
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = idx(n, x, y, z);
                let nb = u[idx(n, x - 1, y, z)]
                    + u[idx(n, x + 1, y, z)]
                    + u[idx(n, x, y - 1, z)]
                    + u[idx(n, x, y + 1, z)]
                    + u[idx(n, x, y, z - 1)]
                    + u[idx(n, x, y, z + 1)];
                let r = f[i] - (6.0 * u[i] - nb);
                norm += r * r;
            }
        }
    }
    norm.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        let cfg = MgConfig::tiny();
        assert_eq!(reference_digest(&cfg), reference_digest(&cfg));
    }

    #[test]
    fn jacobi_reduces_residual() {
        let cfg = MgConfig::tiny();
        let early = reference_residual_norm(&cfg, 1);
        let late = reference_residual_norm(&cfg, 4);
        assert!(late < early, "residual must decrease: {early} -> {late}");
    }

    #[test]
    fn plane_partition_covers_grid() {
        for n in [8, 16, 32] {
            for nodes in [1, 2, 4, 8] {
                let mut covered = 0;
                for me in 0..nodes {
                    let (lo, hi) = my_planes(n, me, nodes);
                    covered += hi - lo;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn config_page_math() {
        let cfg = MgConfig::tiny();
        assert!(cfg.shared_pages(256) > 0);
        assert_eq!(cfg.extent(1), 4);
    }
}
