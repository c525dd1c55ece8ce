//! Packed, cache-blocked GEMM kernels used by the im2col convolution
//! lowering.
//!
//! Three variants are provided because the convolution backward passes need
//! products against transposed operands and materialising the transpose would
//! double memory traffic on the (already large) im2col buffers:
//!
//! * [`matmul`]     — `C = A (M×K) · B (K×N)`
//! * [`matmul_tn`]  — `C = Aᵀ (M×K stored as K×M) · B (K×N)`
//! * [`matmul_nt`]  — `C = A (M×K) · Bᵀ (N×K stored row-major)`
//!
//! All three run through one packed kernel:
//!
//! * The reduction dimension is blocked at `KC` so the packed panels stay
//!   cache-resident across the inner loops.
//! * Per block, `A` is packed into `MR`-row micro-panels laid out `k`-major
//!   (`apack[kk*MR + i]`), so the microkernel reads it as a contiguous
//!   stream regardless of whether the source was stored `(m, k)` or
//!   `(k, m)`; `B` is packed into `NR`-column stripes (`bstripe[kk*NR + j]`)
//!   the same way. Packing zero-pads ragged edges, so the microkernel has
//!   no edge branches.
//! * The microkernel keeps an `MR×NR` accumulator tile in registers and runs
//!   a branch-free multiply-add over the packed panels — fixed trip counts
//!   the auto-vectoriser turns into SIMD. (The seed kernel's data-dependent
//!   `aik == 0.0` skip is gone: it blocked vectorisation and made timing
//!   input-dependent.)
//! * Work is split across cores by disjoint `C` column stripes via
//!   [`crate::parallel::par_ranges`]; each worker packs its own `B` stripes
//!   and owns its columns of `C`, so no synchronisation is needed inside a
//!   block. `ST_THREADS` / [`crate::parallel::set_threads`] pin the core
//!   count.
//!
//! Accumulation order over `k` is identical for every output element across
//! block sizes, thread counts and batch widths, so results are bit-for-bit
//! reproducible — the batched teacher forward relies on this to match
//! per-frame forwards exactly.

use crate::parallel;
use crate::{Result, Shape, Tensor, TensorError};

/// Cache block size over the reduction dimension.
const KC: usize = 256;
/// Microkernel tile rows (distinct broadcast registers per iteration).
const MR: usize = 4;
/// Microkernel tile columns (one or two SIMD vectors wide on most targets).
const NR: usize = 16;
/// Minimum multiply-accumulate count before spawning worker threads. Scoped
/// threads cost tens of microseconds to spawn and join, so only GEMMs with
/// roughly a millisecond of work (e.g. batched teacher forwards) fan out;
/// the per-frame student kernels stay serial and overhead-free.
const PAR_MIN_MACS: usize = 1 << 22;

/// How the `A` operand is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ALayout {
    /// `a[(i, kk)] = a[i*k + kk]` — `A` stored `(m, k)` row-major.
    RowMajor,
    /// `a[(i, kk)] = a[kk*m + i]` — `A` stored `(k, m)` row-major (the
    /// `matmul_tn` case; the product uses `Aᵀ`).
    Transposed,
}

/// How the `B` operand is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BLayout {
    /// `b[(kk, j)] = b[kk*n + j]` — `B` stored `(k, n)` row-major.
    RowMajor,
    /// `b[(kk, j)] = b[j*k + kk]` — `B` stored `(n, k)` row-major (the
    /// `matmul_nt` case; the product uses `Bᵀ`).
    Transposed,
}

/// `*mut f32` that may cross the scoped-thread boundary. Workers receive
/// disjoint column ranges of the output, so concurrent writes never alias.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: the pointer targets the caller-owned `out` buffer, which outlives
// the crossbeam scope the workers run in, and every worker writes only its
// own disjoint column range — no two threads ever touch the same element.
unsafe impl Send for SendPtr {}
// SAFETY: as above — shared access is read-only on the wrapper itself; all
// writes through the pointer are range-disjoint by construction.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor method (rather than field access) so closures capture the
    /// whole `Send + Sync` wrapper, not the bare `*mut f32` field.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Pack rows `[0, m)` of the `A` block `k ∈ [k0, k0+kc)` into `MR`-row
/// micro-panels, `k`-major within each panel, zero-padding the last panel.
fn pack_a(apack: &mut [f32], a: &[f32], layout: ALayout, m: usize, k: usize, k0: usize, kc: usize) {
    let panels = m.div_ceil(MR);
    apack[..panels * MR * kc].fill(0.0);
    match layout {
        ALayout::RowMajor => {
            for p in 0..panels {
                let i0 = p * MR;
                let rows = MR.min(m - i0);
                let base = p * MR * kc;
                for ii in 0..rows {
                    let src = &a[(i0 + ii) * k + k0..(i0 + ii) * k + k0 + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        apack[base + kk * MR + ii] = v;
                    }
                }
            }
        }
        ALayout::Transposed => {
            for p in 0..panels {
                let i0 = p * MR;
                let rows = MR.min(m - i0);
                let base = p * MR * kc;
                for kk in 0..kc {
                    let src = &a[(k0 + kk) * m + i0..(k0 + kk) * m + i0 + rows];
                    apack[base + kk * MR..base + kk * MR + rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Pack the `B` stripe of columns `[j0, j0+cols)` for `k ∈ [k0, k0+kc)` into
/// `bstripe[kk*NR + jj]`, zero-padding columns `cols..NR`.
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot path branch-free
fn pack_b_stripe(
    bstripe: &mut [f32],
    b: &[f32],
    layout: BLayout,
    n: usize,
    k: usize,
    k0: usize,
    kc: usize,
    j0: usize,
    cols: usize,
) {
    bstripe[..kc * NR].fill(0.0);
    match layout {
        BLayout::RowMajor => {
            for kk in 0..kc {
                let src = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + cols];
                bstripe[kk * NR..kk * NR + cols].copy_from_slice(src);
            }
        }
        BLayout::Transposed => {
            for jj in 0..cols {
                let src = &b[(j0 + jj) * k + k0..(j0 + jj) * k + k0 + kc];
                for (kk, &v) in src.iter().enumerate() {
                    bstripe[kk * NR + jj] = v;
                }
            }
        }
    }
}

/// Portable register-tiled inner loop: `acc += apanel · bstripe` over `kc`
/// steps. The `MR×NR` tile is processed as two `MR×(NR/2)` halves so the
/// live accumulators fit the 16 128-bit registers of baseline x86-64
/// (SSE2) and aarch64 (NEON) — a single-pass 4×16 tile spills there.
fn microkernel_portable(kc: usize, apanel: &[f32], bstripe: &[f32], acc: &mut [[f32; NR]; MR]) {
    const HALF: usize = NR / 2;
    for half in 0..2 {
        for (a, b) in apanel
            .chunks_exact(MR)
            .zip(bstripe.chunks_exact(NR))
            .take(kc)
        {
            let b = &b[half * HALF..half * HALF + HALF];
            for ii in 0..MR {
                let av = a[ii];
                let row = &mut acc[ii][half * HALF..half * HALF + HALF];
                for (r, &bv) in row.iter_mut().zip(b.iter()) {
                    *r += av * bv;
                }
            }
        }
    }
}

/// AVX2 + FMA specialisation: the full `4×16` tile is eight 256-bit
/// accumulators, and `mul_add` compiles to `vfmadd` under the enabled
/// features (without them it would be a libm call — hence the runtime
/// dispatch in [`microkernel`]).
///
/// # Safety
/// Caller must have verified `avx2` and `fma` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(kc: usize, apanel: &[f32], bstripe: &[f32], acc: &mut [[f32; NR]; MR]) {
    // Work on a by-value copy of the tile so LLVM promotes it to registers
    // for the whole `kc` loop instead of spilling through the `&mut`.
    let mut tile = *acc;
    for (a, b) in apanel
        .chunks_exact(MR)
        .zip(bstripe.chunks_exact(NR))
        .take(kc)
    {
        for ii in 0..MR {
            let av = a[ii];
            let row = &mut tile[ii];
            for (r, &bv) in row.iter_mut().zip(b.iter()) {
                *r = bv.mul_add(av, *r);
            }
        }
    }
    *acc = tile;
}

/// The register-tiled inner loop, dispatched once per call on the CPU's
/// capabilities (the detection macro caches its probe in an atomic).
#[inline]
fn microkernel(kc: usize, apanel: &[f32], bstripe: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: both required features were just detected.
            unsafe { microkernel_avx2(kc, apanel, bstripe, acc) };
            return;
        }
    }
    microkernel_portable(kc, apanel, bstripe, acc)
}

/// Shared packed GEMM driver: `out += op(A) · op(B)` with `out` pre-zeroed by
/// the caller. `out` is row-major `(m, n)`.
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot path branch-free
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: ALayout,
    b: &[f32],
    b_layout: BLayout,
    out: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let panels = m.div_ceil(MR);
    let mut apack = vec![0.0f32; panels * MR * KC.min(k)];
    let parallel_ok = parallel::threads() > 1 && m * n * k >= PAR_MIN_MACS;
    let out_ptr = SendPtr(out.as_mut_ptr());
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        pack_a(&mut apack, a, a_layout, m, k, k0, kc);
        let apack = &apack;
        let worker = move |j_start: usize, j_end: usize| {
            let out_base = out_ptr.get();
            let mut bstripe = vec![0.0f32; kc * NR];
            let mut j0 = j_start;
            while j0 < j_end {
                let cols = NR.min(j_end - j0);
                pack_b_stripe(&mut bstripe, b, b_layout, n, k, k0, kc, j0, cols);
                for p in 0..panels {
                    let i0 = p * MR;
                    let rows = MR.min(m - i0);
                    let mut acc = [[0.0f32; NR]; MR];
                    microkernel(
                        kc,
                        &apack[p * MR * kc..(p + 1) * MR * kc],
                        &bstripe,
                        &mut acc,
                    );
                    for (ii, acc_row) in acc.iter().enumerate().take(rows) {
                        // SAFETY: this worker exclusively owns columns
                        // `[j_start, j_end)` of `out` (par_ranges is
                        // disjoint), so these row segments never overlap.
                        let row = unsafe {
                            std::slice::from_raw_parts_mut(out_base.add((i0 + ii) * n + j0), cols)
                        };
                        for (o, &v) in row.iter_mut().zip(acc_row.iter()) {
                            *o += v;
                        }
                    }
                }
                j0 += cols;
            }
        };
        if parallel_ok {
            parallel::par_ranges(n, NR, worker);
        } else {
            worker(0, n);
        }
    }
}

fn check_matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    t.shape()
        .as_matrix()
        .map_err(|_| TensorError::ShapeMismatch {
            op,
            lhs: t.shape().dims().to_vec(),
            rhs: vec![0, 0],
        })
}

/// `C = A · B` for row-major matrices `A: (m, k)`, `B: (k, n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_matrix(a, "matmul")?;
    let (kb, n) = check_matrix(b, "matmul")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        a.data(),
        ALayout::RowMajor,
        b.data(),
        BLayout::RowMajor,
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// `C = Aᵀ · B` where `A` is stored as `(k, m)` and `B` as `(k, n)`.
///
/// Result is `(m, n)`. Used for the convolution weight gradient
/// (`dW = dOutᵀ · im2col` style products).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check_matrix(a, "matmul_tn")?;
    let (kb, n) = check_matrix(b, "matmul_tn")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        a.data(),
        ALayout::Transposed,
        b.data(),
        BLayout::RowMajor,
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// `C = A · Bᵀ` where `A` is `(m, k)` and `B` is `(n, k)`, both row-major.
///
/// Result is `(m, n)`. Used for the convolution input gradient
/// (`dCol = Wᵀ · dOut` style products) where the weight matrix is naturally
/// stored `(out_c, in_c*kh*kw)`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_matrix(a, "matmul_nt")?;
    let (n, kb) = check_matrix(b, "matmul_nt")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        a.data(),
        ALayout::RowMajor,
        b.data(),
        BLayout::Transposed,
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;

    fn mat(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::matrix(rows, cols), data.to_vec()).unwrap()
    }

    /// The seed's reference O(mnk) kernel, kept as the oracle the packed
    /// kernel is checked against (here and in the crate's property tests).
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix().unwrap();
        let (_, n) = b.shape().as_matrix().unwrap();
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        mat(m, n, &out)
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (r, c) = t.shape().as_matrix().unwrap();
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = t.data()[i * c + j];
            }
        }
        mat(c, r, &out)
    }

    fn assert_close(fast: &Tensor, slow: &Tensor, tol: f32) {
        assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = mat(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(2, 3));
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros(Shape::vector(3));
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn blocked_matches_naive_random() {
        let a = random::uniform(Shape::matrix(17, 33), -1.0, 1.0, 1);
        let b = random::uniform(Shape::matrix(33, 9), -1.0, 1.0, 2);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn packed_matches_naive_off_tile_shapes() {
        // m, n, k deliberately not multiples of MR/NR/KC, including
        // single-row/column edges.
        for (m, k, n, seed) in [
            (1usize, 1usize, 1usize, 10u64),
            (3, 5, 17, 11),
            (5, 7, 15, 12),
            (MR + 1, KC + 3, NR + 1, 13),
            (2 * MR - 1, 2 * KC + 5, 3 * NR - 7, 14),
            (64, 256, 192, 15),
        ] {
            let a = random::uniform(Shape::matrix(m, k), -1.0, 1.0, seed);
            let b = random::uniform(Shape::matrix(k, n), -1.0, 1.0, seed + 100);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 2e-3);
        }
    }

    #[test]
    fn packed_handles_zero_heavy_inputs() {
        // The seed kernel special-cased zeros; the packed kernel must get
        // the same answers on sparse-ish inputs without the branch.
        let mut a = random::uniform(Shape::matrix(9, 40), -1.0, 1.0, 20);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = random::uniform(Shape::matrix(40, 21), -1.0, 1.0, 21);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        // Workers split C by column stripes; the k-accumulation order per
        // element is unchanged, so results are bit-for-bit identical.
        let a = random::uniform(Shape::matrix(64, 300), -1.0, 1.0, 30);
        let b = random::uniform(Shape::matrix(300, 100), -1.0, 1.0, 31);
        let _knob = crate::parallel::test_thread_knob();
        crate::parallel::set_threads(1);
        let serial = matmul(&a, &b).unwrap();
        crate::parallel::set_threads(4);
        let parallel = matmul(&a, &b).unwrap();
        crate::parallel::set_threads(0);
        assert_eq!(serial.data(), parallel.data());
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = random::uniform(Shape::matrix(13, 7), -1.0, 1.0, 3); // stored (k=13, m=7)
        let b = random::uniform(Shape::matrix(13, 11), -1.0, 1.0, 4);
        let fast = matmul_tn(&a, &b).unwrap();
        assert_eq!(fast.shape().dims(), &[7, 11]);
        assert_close(&fast, &naive(&transpose(&a), &b), 1e-4);
    }

    #[test]
    fn tn_matches_naive_across_blocks() {
        let a = random::uniform(Shape::matrix(KC + 37, 29), -1.0, 1.0, 40);
        let b = random::uniform(Shape::matrix(KC + 37, 19), -1.0, 1.0, 41);
        assert_close(
            &matmul_tn(&a, &b).unwrap(),
            &naive(&transpose(&a), &b),
            2e-3,
        );
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = random::uniform(Shape::matrix(5, 13), -1.0, 1.0, 5);
        let b = random::uniform(Shape::matrix(9, 13), -1.0, 1.0, 6); // (n=9, k=13)
        let fast = matmul_nt(&a, &b).unwrap();
        assert_eq!(fast.shape().dims(), &[5, 9]);
        assert_close(&fast, &naive(&a, &transpose(&b)), 1e-4);
    }

    #[test]
    fn nt_matches_naive_across_blocks() {
        let a = random::uniform(Shape::matrix(23, KC + 41), -1.0, 1.0, 50);
        let b = random::uniform(Shape::matrix(31, KC + 41), -1.0, 1.0, 51);
        assert_close(
            &matmul_nt(&a, &b).unwrap(),
            &naive(&a, &transpose(&b)),
            2e-3,
        );
    }
}
