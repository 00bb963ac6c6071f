//! Shallow — the NCAR shallow-water weather prediction kernel.
//!
//! Thirteen N×N periodic grids (velocities u/v, pressure p, their old
//! and new generations, and the intermediates cu/cv/z/h) updated by
//! finite-difference stencils in three barrier-separated phases per
//! timestep, row-partitioned across the nodes — the structure of the
//! original Fortran benchmark the paper runs.

use ccl_core::{ArrayHandle, Dsm};

use crate::common::{row_buffers, Checksum};

/// Shallow-water problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShallowConfig {
    /// Grid extent per dimension.
    pub n: usize,
    /// Number of timesteps.
    pub steps: usize,
}

impl ShallowConfig {
    /// Harness-scale instance of the paper's data set (256x256 grid).
    pub fn paper() -> ShallowConfig {
        ShallowConfig { n: 256, steps: 12 }
    }

    /// Tiny instance for tests.
    pub fn tiny() -> ShallowConfig {
        ShallowConfig { n: 16, steps: 3 }
    }

    /// Points per grid.
    pub fn points(&self) -> usize {
        self.n * self.n
    }

    /// Shared pages for the 13 grids.
    pub fn shared_pages(&self, page_size: usize) -> u32 {
        let per = (self.points() * 8).div_ceil(page_size) as u32 + 1;
        13 * per
    }
}

// Physical constants of the original benchmark.
const DT: f64 = 90.0;
const DX: f64 = 100_000.0;
const DY: f64 = 100_000.0;
const A: f64 = 1_000_000.0;
const ALPHA: f64 = 0.001;
const EL: f64 = 2_000_000.0; // domain extent used by the initial field
const PCF: f64 = 3.0;

#[inline]
fn at(n: usize, x: usize, y: usize) -> usize {
    y * n + x
}

#[inline]
fn wrap(n: usize, i: usize, d: isize) -> usize {
    (i as isize + d).rem_euclid(n as isize) as usize
}

/// Initial stream-function-derived fields, identical on every node.
pub fn initial_fields(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    initial_rows(n, 0, n)
}

/// Rows `ylo..yhi` of [`initial_fields`], `(yhi - ylo) * n` values each,
/// bit for bit: the same per-element arithmetic over only the stream
/// function rows `ylo..=yhi` that they read. A node builds just the rows
/// it owns, so no node holds the whole grids.
pub fn initial_rows(n: usize, ylo: usize, yhi: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let di = 2.0 * std::f64::consts::PI / n as f64;
    let dj = 2.0 * std::f64::consts::PI / n as f64;
    let mut psi = vec![0.0; (yhi - ylo + 1) * (n + 1)];
    for j in ylo..=yhi {
        for i in 0..=n {
            psi[(j - ylo) * (n + 1) + i] =
                A * ((i as f64 + 0.5) * di).sin() * ((j as f64 + 0.5) * dj).sin();
        }
    }
    let mut u = vec![0.0; (yhi - ylo) * n];
    let mut v = vec![0.0; (yhi - ylo) * n];
    let mut p = vec![0.0; (yhi - ylo) * n];
    for y in ylo..yhi {
        let r = y - ylo;
        for x in 0..n {
            u[at(n, x, r)] = -(psi[(r + 1) * (n + 1) + x] - psi[r * (n + 1) + x]) / DY;
            v[at(n, x, r)] = (psi[r * (n + 1) + x + 1] - psi[r * (n + 1) + x]) / DX;
            // Positive-definite pressure, as in the original kernel
            // (the z-field divides by a 4-point sum of p).
            p[at(n, x, r)] =
                PCF * (((x as f64) * di).cos() + ((y as f64) * dj).cos()) * (EL / 1000.0)
                    + 50_000.0;
        }
    }
    (u, v, p)
}

struct Grids {
    u: ArrayHandle<f64>,
    v: ArrayHandle<f64>,
    p: ArrayHandle<f64>,
    unew: ArrayHandle<f64>,
    vnew: ArrayHandle<f64>,
    pnew: ArrayHandle<f64>,
    uold: ArrayHandle<f64>,
    vold: ArrayHandle<f64>,
    pold: ArrayHandle<f64>,
    cu: ArrayHandle<f64>,
    cv: ArrayHandle<f64>,
    z: ArrayHandle<f64>,
    h: ArrayHandle<f64>,
}

fn my_rows(n: usize, me: usize, nodes: usize) -> (usize, usize) {
    let per = n.div_ceil(nodes);
    ((me * per).min(n), ((me + 1) * per).min(n))
}

/// Run Shallow on the DSM; every node returns the same digest.
pub fn run(dsm: &mut Dsm, cfg: &ShallowConfig) -> u64 {
    let n = cfg.n;
    let me = dsm.me();
    let nodes = dsm.nodes();
    let g = Grids {
        u: dsm.alloc_blocked::<f64>(cfg.points()),
        v: dsm.alloc_blocked::<f64>(cfg.points()),
        p: dsm.alloc_blocked::<f64>(cfg.points()),
        unew: dsm.alloc_blocked::<f64>(cfg.points()),
        vnew: dsm.alloc_blocked::<f64>(cfg.points()),
        pnew: dsm.alloc_blocked::<f64>(cfg.points()),
        uold: dsm.alloc_blocked::<f64>(cfg.points()),
        vold: dsm.alloc_blocked::<f64>(cfg.points()),
        pold: dsm.alloc_blocked::<f64>(cfg.points()),
        cu: dsm.alloc_blocked::<f64>(cfg.points()),
        cv: dsm.alloc_blocked::<f64>(cfg.points()),
        z: dsm.alloc_blocked::<f64>(cfg.points()),
        h: dsm.alloc_blocked::<f64>(cfg.points()),
    };
    let (ylo, yhi) = my_rows(n, me, nodes);

    // Initialization: each node writes its rows of the identical field,
    // built from its rows alone and dropped before the first barrier.
    let (u0, v0, p0) = initial_rows(n, ylo, yhi);
    for y in ylo..yhi {
        let (i, r) = (at(n, 0, y), at(n, 0, y - ylo));
        dsm.write_slice(&g.u, i, &u0[r..r + n]);
        dsm.write_slice(&g.v, i, &v0[r..r + n]);
        dsm.write_slice(&g.p, i, &p0[r..r + n]);
        dsm.write_slice(&g.uold, i, &u0[r..r + n]);
        dsm.write_slice(&g.vold, i, &v0[r..r + n]);
        dsm.write_slice(&g.pold, i, &p0[r..r + n]);
    }
    drop((u0, v0, p0));
    dsm.barrier();

    let fsdx = 4.0 / DX;
    let fsdy = 4.0 / DY;
    let tdts8 = DT * DT / 8.0; // placeholder-free constants as in the kernel
    let tdtsdx = DT / DX;
    let tdtsdy = DT / DY;

    // Every phase moves whole rows: one access check per page, the row
    // calls issued in the order a per-element loop first touches each
    // row (DESIGN.md §10), the arithmetic in the per-element order.
    let row = |y: usize| at(n, 0, y);
    for _step in 0..cfg.steps {
        // Phase 1: cu, cv, z, h.
        let [mut p_c, mut p_s, mut u_c, mut u_s, mut v_c, mut v_n, mut cu, mut cv, mut z, mut h] =
            row_buffers(n);
        for y in ylo..yhi {
            let yn = wrap(n, y, 1);
            let ys = wrap(n, y, -1);
            dsm.read_slice(&g.p, row(y), &mut p_c);
            dsm.read_slice(&g.p, row(ys), &mut p_s);
            dsm.read_slice(&g.u, row(y), &mut u_c);
            dsm.read_slice(&g.v, row(y), &mut v_c);
            dsm.read_slice(&g.v, row(yn), &mut v_n);
            for x in 0..n {
                let xw = wrap(n, x, -1);
                cu[x] = 0.5 * (p_c[x] + p_c[xw]) * u_c[x];
                cv[x] = 0.5 * (p_c[x] + p_s[x]) * v_c[x];
            }
            dsm.write_slice(&g.cu, row(y), &cu);
            dsm.write_slice(&g.cv, row(y), &cv);
            dsm.read_slice(&g.u, row(ys), &mut u_s);
            for x in 0..n {
                let xe = wrap(n, x, 1);
                let xw = wrap(n, x, -1);
                z[x] = (fsdx * (v_c[x] - v_c[xw]) - fsdy * (u_c[x] - u_s[x]))
                    / (p_c[xw] + p_c[x] + p_s[x] + p_s[xw]);
                h[x] = p_c[x]
                    + 0.25
                        * (u_c[xe] * u_c[xe] + u_c[x] * u_c[x] + v_n[x] * v_n[x] + v_c[x] * v_c[x]);
            }
            dsm.write_slice(&g.z, row(y), &z);
            dsm.write_slice(&g.h, row(y), &h);
            dsm.charge_flops(24 * n as u64);
        }
        dsm.barrier();

        // Phase 2: new generation from old + intermediates.
        let [mut uold, mut vold, mut pold, mut unew, mut vnew, mut pnew] = row_buffers(n);
        let [mut z_c, mut z_n, mut cu_c, mut cu_n, mut cv_c, mut cv_s, mut cv_n, mut h_c, mut h_n] =
            row_buffers(n);
        for y in ylo..yhi {
            let yn = wrap(n, y, 1);
            let ys = wrap(n, y, -1);
            dsm.read_slice(&g.uold, row(y), &mut uold);
            dsm.read_slice(&g.z, row(y), &mut z_c);
            dsm.read_slice(&g.cv, row(y), &mut cv_c);
            dsm.read_slice(&g.cv, row(ys), &mut cv_s);
            dsm.read_slice(&g.h, row(y), &mut h_c);
            dsm.read_slice(&g.vold, row(y), &mut vold);
            dsm.read_slice(&g.z, row(yn), &mut z_n);
            dsm.read_slice(&g.cu, row(yn), &mut cu_n);
            dsm.read_slice(&g.cu, row(y), &mut cu_c);
            dsm.read_slice(&g.h, row(yn), &mut h_n);
            dsm.read_slice(&g.pold, row(y), &mut pold);
            dsm.read_slice(&g.cv, row(yn), &mut cv_n);
            for x in 0..n {
                let xe = wrap(n, x, 1);
                let xw = wrap(n, x, -1);
                unew[x] = uold[x]
                    + tdts8 * (z_c[xe] + z_c[x]) * (cv_c[xe] + cv_s[xe] + cv_s[x] + cv_c[x]) / 4.0
                    - tdtsdx * (h_c[x] - h_c[xw]);
                vnew[x] = vold[x]
                    - tdts8 * (z_n[x] + z_c[x]) * (cu_n[x] + cu_n[xw] + cu_c[xw] + cu_c[x]) / 4.0
                    - tdtsdy * (h_n[x] - h_c[x]);
                pnew[x] = pold[x] - tdtsdx * (cu_c[xe] - cu_c[x]) - tdtsdy * (cv_n[x] - cv_c[x]);
            }
            dsm.write_slice(&g.unew, row(y), &unew);
            dsm.write_slice(&g.vnew, row(y), &vnew);
            dsm.write_slice(&g.pnew, row(y), &pnew);
            dsm.charge_flops(30 * n as u64);
        }
        dsm.barrier();

        // Phase 3: time smoothing and generation shift (row-local).
        let [mut u, mut v, mut p, mut un, mut vn, mut pn, mut uo, mut vo, mut po] = row_buffers(n);
        for y in ylo..yhi {
            let i = row(y);
            dsm.read_slice(&g.u, i, &mut u);
            dsm.read_slice(&g.v, i, &mut v);
            dsm.read_slice(&g.p, i, &mut p);
            dsm.read_slice(&g.unew, i, &mut un);
            dsm.read_slice(&g.vnew, i, &mut vn);
            dsm.read_slice(&g.pnew, i, &mut pn);
            dsm.read_slice(&g.uold, i, &mut uo);
            dsm.read_slice(&g.vold, i, &mut vo);
            dsm.read_slice(&g.pold, i, &mut po);
            for x in 0..n {
                uo[x] = u[x] + ALPHA * (un[x] - 2.0 * u[x] + uo[x]);
                vo[x] = v[x] + ALPHA * (vn[x] - 2.0 * v[x] + vo[x]);
                po[x] = p[x] + ALPHA * (pn[x] - 2.0 * p[x] + po[x]);
            }
            dsm.write_slice(&g.uold, i, &uo);
            dsm.write_slice(&g.vold, i, &vo);
            dsm.write_slice(&g.pold, i, &po);
            dsm.write_slice(&g.u, i, &un);
            dsm.write_slice(&g.v, i, &vn);
            dsm.write_slice(&g.p, i, &pn);
            dsm.charge_flops(18 * n as u64);
        }
        dsm.barrier();
    }

    let mut sum = Checksum::new();
    let stride = (cfg.points() / 64).max(1);
    let mut i = 0;
    while i < cfg.points() {
        sum.push_f64(dsm.read(&g.p, i));
        sum.push_f64(dsm.read(&g.u, i));
        sum.push_f64(dsm.read(&g.v, i));
        i += stride;
    }
    dsm.barrier();
    sum.digest()
}

/// Serial reference with identical arithmetic.
pub fn reference_digest(cfg: &ShallowConfig) -> u64 {
    let n = cfg.n;
    let (mut u, mut v, mut p) = initial_fields(n);
    let (mut uold, mut vold, mut pold) = (u.clone(), v.clone(), p.clone());
    let mut cu = vec![0.0; n * n];
    let mut cv = vec![0.0; n * n];
    let mut z = vec![0.0; n * n];
    let mut h = vec![0.0; n * n];
    let fsdx = 4.0 / DX;
    let fsdy = 4.0 / DY;
    let tdts8 = DT * DT / 8.0;
    let tdtsdx = DT / DX;
    let tdtsdy = DT / DY;
    for _ in 0..cfg.steps {
        for y in 0..n {
            for x in 0..n {
                let xe = wrap(n, x, 1);
                let xw = wrap(n, x, -1);
                let yn = wrap(n, y, 1);
                let ys = wrap(n, y, -1);
                cu[at(n, x, y)] = 0.5 * (p[at(n, x, y)] + p[at(n, xw, y)]) * u[at(n, x, y)];
                cv[at(n, x, y)] = 0.5 * (p[at(n, x, y)] + p[at(n, x, ys)]) * v[at(n, x, y)];
                z[at(n, x, y)] = (fsdx * (v[at(n, x, y)] - v[at(n, xw, y)])
                    - fsdy * (u[at(n, x, y)] - u[at(n, x, ys)]))
                    / (p[at(n, xw, y)] + p[at(n, x, y)] + p[at(n, x, ys)] + p[at(n, xw, ys)]);
                h[at(n, x, y)] = p[at(n, x, y)]
                    + 0.25
                        * (u[at(n, xe, y)] * u[at(n, xe, y)]
                            + u[at(n, x, y)] * u[at(n, x, y)]
                            + v[at(n, x, yn)] * v[at(n, x, yn)]
                            + v[at(n, x, y)] * v[at(n, x, y)]);
            }
        }
        let mut unew = vec![0.0; n * n];
        let mut vnew = vec![0.0; n * n];
        let mut pnew = vec![0.0; n * n];
        for y in 0..n {
            for x in 0..n {
                let xe = wrap(n, x, 1);
                let xw = wrap(n, x, -1);
                let yn = wrap(n, y, 1);
                let ys = wrap(n, y, -1);
                unew[at(n, x, y)] = uold[at(n, x, y)]
                    + tdts8
                        * (z[at(n, xe, y)] + z[at(n, x, y)])
                        * (cv[at(n, xe, y)]
                            + cv[at(n, xe, ys)]
                            + cv[at(n, x, ys)]
                            + cv[at(n, x, y)])
                        / 4.0
                    - tdtsdx * (h[at(n, x, y)] - h[at(n, xw, y)]);
                vnew[at(n, x, y)] = vold[at(n, x, y)]
                    - tdts8
                        * (z[at(n, x, yn)] + z[at(n, x, y)])
                        * (cu[at(n, x, yn)]
                            + cu[at(n, xw, yn)]
                            + cu[at(n, xw, y)]
                            + cu[at(n, x, y)])
                        / 4.0
                    - tdtsdy * (h[at(n, x, yn)] - h[at(n, x, y)]);
                pnew[at(n, x, y)] = pold[at(n, x, y)]
                    - tdtsdx * (cu[at(n, xe, y)] - cu[at(n, x, y)])
                    - tdtsdy * (cv[at(n, x, yn)] - cv[at(n, x, y)]);
            }
        }
        for i in 0..n * n {
            uold[i] = u[i] + ALPHA * (unew[i] - 2.0 * u[i] + uold[i]);
            vold[i] = v[i] + ALPHA * (vnew[i] - 2.0 * v[i] + vold[i]);
            pold[i] = p[i] + ALPHA * (pnew[i] - 2.0 * p[i] + pold[i]);
            u[i] = unew[i];
            v[i] = vnew[i];
            p[i] = pnew[i];
        }
    }
    let mut sum = Checksum::new();
    let stride = (cfg.points() / 64).max(1);
    let mut i = 0;
    while i < cfg.points() {
        sum.push_f64(p[i]);
        sum.push_f64(u[i]);
        sum.push_f64(v[i]);
        i += stride;
    }
    sum.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        let cfg = ShallowConfig::tiny();
        assert_eq!(reference_digest(&cfg), reference_digest(&cfg));
    }

    #[test]
    fn initial_fields_have_structure() {
        let (u, v, p) = initial_fields(8);
        assert!(u.iter().any(|&x| x != 0.0));
        assert!(v.iter().any(|&x| x != 0.0));
        assert!(p.iter().all(|&x| x.is_finite()));
    }

    /// Every node's rows of the initial field are the matching rows of
    /// the whole field, bit for bit — empty ranges included (n = 16 on
    /// 7 nodes leaves node 6 none).
    #[test]
    fn initial_rows_are_the_rows_of_initial_fields() {
        for n in [16, 256] {
            let (u, v, p) = initial_fields(n);
            for nodes in 1..=8 {
                for me in 0..nodes {
                    let (ylo, yhi) = my_rows(n, me, nodes);
                    let (ur, vr, pr) = initial_rows(n, ylo, yhi);
                    let rows = ylo * n..yhi * n;
                    for (whole, part) in [(&u, &ur), (&v, &vr), (&p, &pr)] {
                        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(part),
                            bits(&whole[rows.clone()]),
                            "n {n}, node {me}/{nodes}"
                        );
                    }
                }
            }
        }
        assert_eq!(my_rows(16, 6, 7), (16, 16));
    }

    #[test]
    fn wrap_is_periodic() {
        assert_eq!(wrap(8, 0, -1), 7);
        assert_eq!(wrap(8, 7, 1), 0);
        assert_eq!(wrap(8, 3, 0), 3);
    }

    #[test]
    fn fields_stay_finite() {
        // A few steps must not blow up (CFL-stable constants).
        let cfg = ShallowConfig { n: 16, steps: 10 };
        let d1 = reference_digest(&cfg);
        let d2 = reference_digest(&ShallowConfig { n: 16, steps: 11 });
        assert_ne!(d1, d2, "state must evolve");
    }
}
