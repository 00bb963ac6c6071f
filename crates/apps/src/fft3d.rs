//! 3D-FFT — the NAS FT kernel (3-dimensional Fast Fourier Transform).
//!
//! The complex grid is stored as two shared f64 arrays (real and
//! imaginary), laid out `index(x,y,z) = (x*ny + y)*nz + z` and block-
//! distributed by x-slabs, so each node's slab is homed locally.
//!
//! Per iteration (NAS FT structure): a pointwise *evolve* step and 1-D
//! FFTs along z and y on the local x-slab; a barrier; then a
//! **transpose** into a second, y-slab-distributed array combined with
//! the x-direction FFTs — every node *reads* pencils that cross all
//! remote slabs and *writes only its own* slab of the transposed array;
//! finally the data is transposed back the same way. The all-to-all
//! read traffic (whole-array page fetches every iteration) makes 3D-FFT
//! the most communication-intensive program in the paper's suite
//! (largest ML overhead and log, largest recovery savings).

use ccl_core::{ArrayHandle, Dsm};

use crate::common::{Checksum, SplitMix64};

/// 3D-FFT problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct FftConfig {
    /// Grid extent in x (power of two).
    pub nx: usize,
    /// Grid extent in y (power of two).
    pub ny: usize,
    /// Grid extent in z (power of two).
    pub nz: usize,
    /// Number of evolve+FFT iterations.
    pub iterations: usize,
}

impl FftConfig {
    /// Harness-scale instance of the paper's data set (64x64x32 grid).
    pub fn paper() -> FftConfig {
        FftConfig {
            nx: 64,
            ny: 64,
            nz: 32,
            iterations: 5,
        }
    }

    /// Tiny instance for tests.
    pub fn tiny() -> FftConfig {
        FftConfig {
            nx: 8,
            ny: 8,
            nz: 8,
            iterations: 2,
        }
    }

    /// Total grid points.
    pub fn points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Shared pages needed (four f64 arrays: the grid and its transpose,
    /// real and imaginary, page-aligned each).
    pub fn shared_pages(&self, page_size: usize) -> u32 {
        let per_array = (self.points() * 8).div_ceil(page_size) as u32;
        4 * (per_array + 1)
    }
}

#[inline]
fn index(cfg: &FftConfig, x: usize, y: usize, z: usize) -> usize {
    (x * cfg.ny + y) * cfg.nz + z
}

/// In-place iterative radix-2 complex FFT.
///
/// Exposed so the serial reference and property tests can exercise the
/// exact arithmetic the parallel kernel runs.
pub fn fft_pencil(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    assert!(n.is_power_of_two(), "pencil length must be a power of two");
    assert_eq!(n, im.len());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr0, vi0) = (re[i + k + len / 2], im[i + k + len / 2]);
                let vr = vr0 * cr - vi0 * ci;
                let vi = vr0 * ci + vi0 * cr;
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Flop charge for one pencil FFT of length `n` (5 n log2 n, the
/// standard FFT operation count).
fn fft_flops(n: usize) -> u64 {
    5 * n as u64 * n.trailing_zeros() as u64
}

/// Deterministic initial value of grid point `i` (used by both the
/// parallel kernel and the serial reference).
pub fn initial_value(i: usize) -> (f64, f64) {
    let mut g = SplitMix64::new(0xF17_0000 ^ i as u64);
    (g.next_signed(), g.next_signed())
}

/// The evolve factor applied at iteration `it` to grid point `i`.
pub fn evolve_factor(it: usize, i: usize) -> (f64, f64) {
    let phase = (i as f64 * 0.001 + it as f64 * 0.1).sin() * 0.01;
    (phase.cos(), phase.sin())
}

struct Grids {
    /// x-major array `(x*ny + y)*nz + z`, blocked by x-slabs.
    a_re: ArrayHandle<f64>,
    a_im: ArrayHandle<f64>,
    /// y-major transpose array `(y*nx + x)*nz + z`, blocked by y-slabs.
    b_re: ArrayHandle<f64>,
    b_im: ArrayHandle<f64>,
}

#[inline]
fn index_b(cfg: &FftConfig, x: usize, y: usize, z: usize) -> usize {
    (y * cfg.nx + x) * cfg.nz + z
}

/// Read a plane of `run`-point runs into `re` / `im`, run `i` from
/// element `at(i)` of the real and imaginary arrays: real then
/// imaginary, run by run — the order in which a pencil across the runs
/// first touches their pages.
fn read_runs(
    dsm: &mut Dsm,
    [h_re, h_im]: [&ArrayHandle<f64>; 2],
    [re, im]: [&mut [f64]; 2],
    run: usize,
    at: impl Fn(usize) -> usize,
) {
    for (i, (r, m)) in re
        .chunks_exact_mut(run)
        .zip(im.chunks_exact_mut(run))
        .enumerate()
    {
        dsm.read_slice(h_re, at(i), r);
        dsm.read_slice(h_im, at(i), m);
    }
}

/// Write a plane of runs back, in [`read_runs`]' order.
fn write_runs(
    dsm: &mut Dsm,
    [h_re, h_im]: [&ArrayHandle<f64>; 2],
    [re, im]: [&[f64]; 2],
    run: usize,
    at: impl Fn(usize) -> usize,
) {
    for (i, (r, m)) in re.chunks_exact(run).zip(im.chunks_exact(run)).enumerate() {
        dsm.write_slice(h_re, at(i), r);
        dsm.write_slice(h_im, at(i), m);
    }
}

/// FFT every pencil across a plane of `run`-point runs: pencil `z` is
/// point `z` of each run, gathered into the front of `pr` / `pi` (one
/// point per run), transformed and scattered back.
fn fft_across_runs(re: &mut [f64], im: &mut [f64], run: usize, pr: &mut [f64], pi: &mut [f64]) {
    let n = re.len() / run;
    let (pr, pi) = (&mut pr[..n], &mut pi[..n]);
    for z in 0..run {
        for (k, (r, m)) in re.chunks_exact(run).zip(im.chunks_exact(run)).enumerate() {
            (pr[k], pi[k]) = (r[z], m[z]);
        }
        fft_pencil(pr, pi);
        for (k, (r, m)) in re
            .chunks_exact_mut(run)
            .zip(im.chunks_exact_mut(run))
            .enumerate()
        {
            (r[z], m[z]) = (pr[k], pi[k]);
        }
    }
}

/// Run 3D-FFT on the DSM; every node returns the same digest.
pub fn run(dsm: &mut Dsm, cfg: &FftConfig) -> u64 {
    let n_nodes = dsm.nodes();
    let me = dsm.me();
    assert_eq!(cfg.nx % n_nodes, 0, "nx must divide by node count");
    assert_eq!(cfg.ny % n_nodes, 0, "ny must divide by node count");
    let grids = Grids {
        a_re: dsm.alloc_blocked::<f64>(cfg.points()),
        a_im: dsm.alloc_blocked::<f64>(cfg.points()),
        b_re: dsm.alloc_blocked::<f64>(cfg.points()),
        b_im: dsm.alloc_blocked::<f64>(cfg.points()),
    };
    let slab = cfg.nx / n_nodes;
    let x0 = me * slab;
    let y_chunk = cfg.ny / n_nodes;
    let y0 = me * y_chunk;

    let nz = cfg.nz;
    let (mut zr, mut zi) = (vec![0.0; nz], vec![0.0; nz]);
    // Initialize own slab.
    for x in x0..x0 + slab {
        for y in 0..cfg.ny {
            let base = index(cfg, x, y, 0);
            for z in 0..nz {
                (zr[z], zi[z]) = initial_value(base + z);
            }
            dsm.write_slice(&grids.a_re, base, &zr);
            dsm.write_slice(&grids.a_im, base, &zi);
        }
    }
    dsm.barrier();

    // Phases 1-3 move whole z-runs, one access check per page: a plane
    // of runs is read in the order the per-element loop's z = 0 pencil
    // first touches their pages, its x- or y-FFTs run on a private
    // copy, and it is written back after the z = 0 charge, as the
    // element loop first writes (DESIGN.md §10).
    let longest = cfg.nx.max(cfg.ny);
    let (mut plane_re, mut plane_im) = (vec![0.0; longest * nz], vec![0.0; longest * nz]);
    let (mut pencil_re, mut pencil_im) = (vec![0.0; longest], vec![0.0; longest]);

    for it in 0..cfg.iterations {
        // Phase 1 (local): evolve + z and y FFTs on the own x-slab.
        for x in x0..x0 + slab {
            for y in 0..cfg.ny {
                let base = index(cfg, x, y, 0);
                dsm.read_slice(&grids.a_re, base, &mut zr);
                dsm.read_slice(&grids.a_im, base, &mut zi);
                for z in 0..cfg.nz {
                    let (fr, fi) = evolve_factor(it, base + z);
                    let (r, i) = (zr[z], zi[z]);
                    zr[z] = r * fr - i * fi;
                    zi[z] = r * fi + i * fr;
                }
                dsm.charge_flops(6 * cfg.nz as u64);
                fft_pencil(&mut zr, &mut zi);
                dsm.charge_flops(fft_flops(cfg.nz));
                dsm.write_slice(&grids.a_re, base, &zr);
                dsm.write_slice(&grids.a_im, base, &zi);
            }
            // The y-FFTs: every page of the x-plane was just written,
            // so moving the plane at once faults nowhere.
            let (re, im) = (&mut plane_re[..cfg.ny * nz], &mut plane_im[..cfg.ny * nz]);
            let base = index(cfg, x, 0, 0);
            dsm.read_slice(&grids.a_re, base, re);
            dsm.read_slice(&grids.a_im, base, im);
            fft_across_runs(re, im, nz, &mut pencil_re, &mut pencil_im);
            for _ in 0..nz {
                dsm.charge_flops(fft_flops(cfg.ny));
            }
            dsm.write_slice(&grids.a_re, base, re);
            dsm.write_slice(&grids.a_im, base, im);
        }
        dsm.barrier();
        // Phase 2: transpose + x FFTs. Read the y-plane's x-pencils
        // across every remote slab of A; FFT; write into the *own*
        // y-slab of B.
        for y in y0..y0 + y_chunk {
            let (re, im) = (&mut plane_re[..cfg.nx * nz], &mut plane_im[..cfg.nx * nz]);
            read_runs(dsm, [&grids.a_re, &grids.a_im], [re, im], nz, |x| {
                index(cfg, x, y, 0)
            });
            fft_across_runs(re, im, nz, &mut pencil_re, &mut pencil_im);
            dsm.charge_flops(fft_flops(cfg.nx));
            write_runs(dsm, [&grids.b_re, &grids.b_im], [re, im], nz, |x| {
                index_b(cfg, x, y, 0)
            });
            for _ in 1..nz {
                dsm.charge_flops(fft_flops(cfg.nx));
            }
        }
        dsm.barrier();
        // Phase 3: transpose back — read the x-plane's y-pencils across
        // remote slabs of B, write the own x-slab of A.
        for x in x0..x0 + slab {
            let (re, im) = (&mut plane_re[..cfg.ny * nz], &mut plane_im[..cfg.ny * nz]);
            read_runs(dsm, [&grids.b_re, &grids.b_im], [re, im], nz, |y| {
                index_b(cfg, x, y, 0)
            });
            dsm.charge_flops(2 * cfg.ny as u64);
            write_runs(dsm, [&grids.a_re, &grids.a_im], [re, im], nz, |y| {
                index(cfg, x, y, 0)
            });
            for _ in 1..nz {
                dsm.charge_flops(2 * cfg.ny as u64);
            }
        }
        dsm.barrier();
    }

    // Every node digests the same probe subset (also exercises the
    // coherence of the final state).
    let mut sum = Checksum::new();
    let stride = (cfg.points() / 64).max(1);
    let mut i = 0;
    while i < cfg.points() {
        sum.push_f64(dsm.read(&grids.a_re, i));
        sum.push_f64(dsm.read(&grids.a_im, i));
        i += stride;
    }
    dsm.barrier();
    sum.digest()
}

/// Serial reference: identical arithmetic, no DSM. Used by tests to pin
/// the parallel kernel's output bit-for-bit.
pub fn reference_digest(cfg: &FftConfig) -> u64 {
    let n = cfg.points();
    let mut re = vec![0.0f64; n];
    let mut im = vec![0.0f64; n];
    for (i, (r, v)) in (0..n).map(initial_value).enumerate() {
        re[i] = r;
        im[i] = v;
    }
    let mut pr;
    let mut pi;
    for it in 0..cfg.iterations {
        for x in 0..cfg.nx {
            for y in 0..cfg.ny {
                let base = index(cfg, x, y, 0);
                for z in 0..cfg.nz {
                    let (fr, fi) = evolve_factor(it, base + z);
                    let (r, i) = (re[base + z], im[base + z]);
                    re[base + z] = r * fr - i * fi;
                    im[base + z] = r * fi + i * fr;
                }
                let (a, b) = (&mut re[base..base + cfg.nz], &mut im[base..base + cfg.nz]);
                fft_pencil(a, b);
            }
            for z in 0..cfg.nz {
                pr = (0..cfg.ny)
                    .map(|y| re[index(cfg, x, y, z)])
                    .collect::<Vec<_>>();
                pi = (0..cfg.ny)
                    .map(|y| im[index(cfg, x, y, z)])
                    .collect::<Vec<_>>();
                fft_pencil(&mut pr, &mut pi);
                for y in 0..cfg.ny {
                    re[index(cfg, x, y, z)] = pr[y];
                    im[index(cfg, x, y, z)] = pi[y];
                }
            }
        }
        for y in 0..cfg.ny {
            for z in 0..cfg.nz {
                pr = (0..cfg.nx)
                    .map(|x| re[index(cfg, x, y, z)])
                    .collect::<Vec<_>>();
                pi = (0..cfg.nx)
                    .map(|x| im[index(cfg, x, y, z)])
                    .collect::<Vec<_>>();
                fft_pencil(&mut pr, &mut pi);
                for x in 0..cfg.nx {
                    re[index(cfg, x, y, z)] = pr[x];
                    im[index(cfg, x, y, z)] = pi[x];
                }
            }
        }
    }
    let mut sum = Checksum::new();
    let stride = (n / 64).max(1);
    let mut i = 0;
    while i < n {
        sum.push_f64(re[i]);
        sum.push_f64(im[i]);
        i += stride;
    }
    sum.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft_pencil(&mut re, &mut im);
        for i in 0..8 {
            assert!((re[i] - 1.0).abs() < 1e-12);
            assert!(im[i].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval_energy_scaling() {
        let mut g = SplitMix64::new(3);
        let mut re: Vec<f64> = (0..16).map(|_| g.next_signed()).collect();
        let mut im: Vec<f64> = (0..16).map(|_| g.next_signed()).collect();
        let e_in: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        fft_pencil(&mut re, &mut im);
        let e_out: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        assert!((e_out - 16.0 * e_in).abs() < 1e-9 * e_out.abs().max(1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut re = vec![0.0; 6];
        let mut im = vec![0.0; 6];
        fft_pencil(&mut re, &mut im);
    }

    #[test]
    fn reference_is_deterministic() {
        let cfg = FftConfig::tiny();
        assert_eq!(reference_digest(&cfg), reference_digest(&cfg));
    }

    #[test]
    fn config_page_math() {
        let cfg = FftConfig::tiny();
        assert_eq!(cfg.points(), 512);
        assert!(cfg.shared_pages(256) >= 2 * (512 * 8 / 256) as u32);
    }
}
