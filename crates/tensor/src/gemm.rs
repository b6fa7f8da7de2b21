//! The one GEMM kernel behind [`Tensor::matmul`], [`Tensor::matmul_t`] and
//! [`Tensor::t_matmul`](crate::Tensor::t_matmul).
//!
//! The three ops differ only in how their operands sit in memory, so each
//! passes strided [`View`]s of A (`m × k`) and B (`k × n`) to [`gemm`].
//!
//! **Packing.** `k` is walked in chunks of [`KC`]. For each chunk, B is
//! copied into `NR`-wide column panels (`kc × NR`, row-major), and each
//! [`MC`]-row block of A into `MR`-row slivers (`kc × MR`, column-major).
//! Panels and slivers are zero-padded at the right and bottom edges, so the
//! micro-kernel always runs a full `MR × NR` tile and only the valid part
//! is stored. The tile's accumulators stay in registers across the chunk.
//!
//! **Bit identity with the textbook loops.** Every output element:
//! 1. accumulates its `k` products in ascending `p` order, starting from
//!    `+0.0`. Between `k` chunks the partial sum is parked in the output,
//!    which is an exact `f32` store;
//! 2. forms each product with a separate multiply, then an add. Rust never
//!    contracts these into an FMA, and this module uses neither `mul_add`
//!    nor FMA intrinsics;
//! 3. adds every product, even where `A[i, p] == 0`. Skipping those (as the
//!    old i-p-j loops did) never changes a finite result, because adding
//!    `±0` to an accumulator that starts at `+0.0` is a no-op.
//!
//! So the result equals the plain dot-product loop bit for bit on every
//! finite input. The one visible difference from the old skipping loops
//! is `0 × ∞` (or `0 × NaN`): it now yields NaN in all three ops, as it
//! always did in `matmul_t`.
//!
//! **Dispatch.** The body is written once, generic over the tile shape. It
//! is compiled for the baseline target and again inside
//! `#[target_feature]` wrappers for AVX2 and AVX-512F. The widest instance
//! the CPU supports is picked once per process with
//! `is_x86_feature_detected!`. There are no threads in here: each rank
//! already owns a core.

use std::sync::OnceLock;

/// Depth of one packed chunk of `k`.
const KC: usize = 256;
/// Rows of A packed per block; a multiple of every instance's `MR`.
const MC: usize = 64;

/// A read-only strided matrix: element `(i, j)` is `data[i * rs + j * cs]`.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// A row-major `rows × cols` matrix.
    pub(crate) fn rows(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        View {
            data,
            rows,
            cols,
            rs: cols,
            cs: 1,
        }
    }

    /// The transpose of a row-major `rows × cols` matrix.
    pub(crate) fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        View {
            data,
            rows: cols,
            cols: rows,
            rs: 1,
            cs: cols,
        }
    }

    /// The transpose of this view (no copy).
    fn t(self) -> Self {
        View {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// One compiled instance of the kernel: writes `A · B` into a zeroed,
/// row-major `m × n` output.
type Kernel = fn(View<'_>, View<'_>, &mut [f32]);

/// Returns `A · B` as a row-major `a.rows × b.cols` buffer.
pub(crate) fn gemm(a: View<'_>, b: View<'_>) -> Vec<f32> {
    static PICKED: OnceLock<Kernel> = OnceLock::new();
    let kernel = PICKED.get_or_init(|| {
        instances()
            .last()
            .expect("the baseline instance is always present")
            .1
    });
    let mut out = vec![0.0f32; a.rows * b.cols];
    kernel(a, b, &mut out);
    out
}

/// Every instance this host can run, slowest first.
pub(crate) fn instances() -> Vec<(&'static str, Kernel)> {
    #[allow(unused_mut)]
    let mut out: Vec<(&'static str, Kernel)> = vec![("baseline", baseline)];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            out.push(("avx2", avx2));
        }
        if is_x86_feature_detected!("avx512f") {
            out.push(("avx512f", avx512f));
        }
    }
    out
}

fn baseline(a: View<'_>, b: View<'_>, out: &mut [f32]) {
    gemm_body::<4, 8>(a, b, out);
}

/// Only listed by [`instances`] after AVX2 was detected.
#[cfg(target_arch = "x86_64")]
fn avx2(a: View<'_>, b: View<'_>, out: &mut [f32]) {
    #[target_feature(enable = "avx2")]
    fn body(a: View<'_>, b: View<'_>, out: &mut [f32]) {
        gemm_body::<4, 16>(a, b, out);
    }
    assert!(is_x86_feature_detected!("avx2"));
    // SAFETY: the CPU supports AVX2, checked just above.
    unsafe { body(a, b, out) }
}

/// Only listed by [`instances`] after AVX-512F was detected.
#[cfg(target_arch = "x86_64")]
fn avx512f(a: View<'_>, b: View<'_>, out: &mut [f32]) {
    #[target_feature(enable = "avx512f")]
    fn body(a: View<'_>, b: View<'_>, out: &mut [f32]) {
        gemm_body::<4, 32>(a, b, out);
    }
    assert!(is_x86_feature_detected!("avx512f"));
    // SAFETY: the CPU supports AVX-512F, checked just above.
    unsafe { body(a, b, out) }
}

#[inline(always)]
fn gemm_body<const MR: usize, const NR: usize>(a: View<'_>, b: View<'_>, out: &mut [f32]) {
    let (m, n) = (a.rows, b.cols);
    // A product narrower than one panel would waste most of every tile:
    // compute its transpose `Bᵀ · Aᵀ` instead and store it column-wise.
    // Each product `b · a` equals `a · b` exactly, so the bits do not move.
    if n < NR && m > n {
        blocked::<MR, NR>(b.t(), a.t(), out, (1, n));
    } else {
        blocked::<MR, NR>(a, b, out, (n, 1));
    }
}

/// `out[i * ldc.0 + j * ldc.1] = (A · B)[i, j]`.
#[inline(always)]
fn blocked<const MR: usize, const NR: usize>(
    a: View<'_>,
    b: View<'_>,
    out: &mut [f32],
    ldc: (usize, usize),
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(k, b.rows);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let panels = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; KC.min(k) * panels * NR];
    let mut apack = vec![0.0f32; KC.min(k) * MC.min(m).next_multiple_of(MR)];
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        pack::<NR>(b, pc, kc, 0, n, &mut bpack);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack::<MR>(a.t(), pc, kc, ic, mc, &mut apack);
            for (jp, bp) in bpack.chunks_exact(kc * NR).take(panels).enumerate() {
                let j0 = jp * NR;
                for (ip, ap) in apack
                    .chunks_exact(kc * MR)
                    .take(mc.div_ceil(MR))
                    .enumerate()
                {
                    let i0 = ic + ip * MR;
                    let tile = Tile {
                        at: i0 * ldc.0 + j0 * ldc.1,
                        rows: MR.min(m - i0),
                        cols: NR.min(n - j0),
                        ldc,
                        resume: pc > 0,
                    };
                    micro::<MR, NR>(ap, bp, tile, out);
                }
            }
        }
    }
}

/// Copies rows `pc..pc + kc`, columns `c0..c0 + count` of `v` into
/// `W`-wide column panels (`kc × W` each, row-major), zero-padded.
///
/// B is packed as is; A is packed through its transpose, so its `W`-row
/// slivers come out column-major.
#[inline(always)]
fn pack<const W: usize>(
    v: View<'_>,
    pc: usize,
    kc: usize,
    c0: usize,
    count: usize,
    dst: &mut [f32],
) {
    let panels = dst.chunks_exact_mut(kc * W).take(count.div_ceil(W));
    for (q, panel) in panels.enumerate() {
        let j0 = c0 + q * W;
        let w = W.min(c0 + count - j0);
        if v.cs == 1 {
            for (p, row) in panel.chunks_exact_mut(W).enumerate() {
                let at = (pc + p) * v.rs + j0;
                row[..w].copy_from_slice(&v.data[at..at + w]);
                row[w..].fill(0.0);
            }
        } else {
            // Walk each source column in turn: contiguous for a transposed
            // row-major matrix.
            for j in 0..W {
                for p in 0..kc {
                    panel[p * W + j] = if j < w { v.at(pc + p, j0 + j) } else { 0.0 };
                }
            }
        }
    }
}

/// Where one micro-tile lands in the output.
#[derive(Clone, Copy)]
struct Tile {
    /// Offset of the tile's top-left element.
    at: usize,
    rows: usize,
    cols: usize,
    /// Output strides between rows and between columns.
    ldc: (usize, usize),
    /// Continue from the partial sums an earlier `k` chunk stored.
    resume: bool,
}

/// `MR × NR` register tile: `acc += sliver · panel` over one `k` chunk.
#[inline(always)]
fn micro<const MR: usize, const NR: usize>(ap: &[f32], bp: &[f32], t: Tile, out: &mut [f32]) {
    let (rs, cs) = t.ldc;
    let mut acc = [[0.0f32; NR]; MR];
    if t.resume {
        for (i, row) in acc.iter_mut().take(t.rows).enumerate() {
            for (j, c) in row.iter_mut().take(t.cols).enumerate() {
                *c = out[t.at + i * rs + j * cs];
            }
        }
    }
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        // Loading both operands by value lets LLVM keep `acc` in vector
        // registers across the loop.
        let a: [f32; MR] = a.try_into().expect("MR-wide sliver row");
        let b: [f32; NR] = b.try_into().expect("NR-wide panel row");
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] += a[i] * b[j];
            }
        }
    }
    for (i, row) in acc.iter().take(t.rows).enumerate() {
        if cs == 1 {
            let at = t.at + i * rs;
            out[at..at + t.cols].copy_from_slice(&row[..t.cols]);
        } else {
            for (j, &c) in row.iter().take(t.cols).enumerate() {
                out[t.at + i * rs + j * cs] = c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::Tensor;
    use proptest::prelude::*;
    use rand::Rng;

    // The loop nests the kernel replaced, kept as its bit-level reference.

    fn ref_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// `[m, k] x [n, k]^T`.
    fn ref_matmul_t(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// `[k, m]^T x [k, n]`.
    fn ref_t_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let arow = &a[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Finite values a bit-identity check must cover: mixed magnitudes,
    /// exact zeros of both signs, and subnormals of both signs.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = seeded(seed);
        (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => 0.0,
                1 => -0.0,
                2 => {
                    let sign = if rng.gen_bool(0.5) { 0x8000_0000 } else { 0 };
                    f32::from_bits(sign | rng.gen_range(1u32..0x0080_0000))
                }
                3 => rng.gen_range(-1e-3f32..1e-3),
                _ => rng.gen_range(-10.0f32..10.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the three matmul forms through every instance this host
    /// supports and through the public ops, against the reference loops.
    fn check_all_forms(m: usize, k: usize, n: usize, seed: u64) {
        let a = values(m * k, seed);
        let b = values(k * n, seed ^ 0x9e37);
        let bt = values(n * k, seed ^ 0x79b9);
        let at = values(k * m, seed ^ 0x7f4a);
        let forms: [(&str, View<'_>, View<'_>, Vec<f32>); 3] = [
            (
                "matmul",
                View::rows(&a, m, k),
                View::rows(&b, k, n),
                ref_matmul(&a, &b, m, k, n),
            ),
            (
                "matmul_t",
                View::rows(&a, m, k),
                View::transposed(&bt, n, k),
                ref_matmul_t(&a, &bt, m, k, n),
            ),
            (
                "t_matmul",
                View::transposed(&at, k, m),
                View::rows(&b, k, n),
                ref_t_matmul(&at, &b, m, k, n),
            ),
        ];
        for (form, va, vb, want) in &forms {
            for (instance, kernel) in instances() {
                let mut got = vec![0.0f32; m * n];
                kernel(*va, *vb, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(want),
                    "{form} on {instance} differs at m={m} k={k} n={n} seed={seed}"
                );
            }
        }
        let t = |v: &[f32], r: usize, c: usize| Tensor::from_vec(v.to_vec(), &[r, c]).unwrap();
        let (ta, tb, tbt, tat) = (t(&a, m, k), t(&b, k, n), t(&bt, n, k), t(&at, k, m));
        assert_eq!(bits(ta.matmul(&tb).unwrap().data()), bits(&forms[0].3));
        assert_eq!(bits(ta.matmul_t(&tbt).unwrap().data()), bits(&forms[1].3));
        assert_eq!(bits(tat.t_matmul(&tb).unwrap().data()), bits(&forms[2].3));
    }

    /// The row-slice ops against their element-indexed originals.
    fn check_row_ops(m: usize, n: usize, seed: u64) {
        let x = Tensor::from_vec(values(m * n, seed), &[m, n]).unwrap();
        let bias = Tensor::from_vec(values(n, seed ^ 0x51ed), &[n]).unwrap();
        let d = x.data();

        let mut sums = vec![0.0f32; n];
        let mut broadcast = d.to_vec();
        let mut transposed = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                sums[j] += d[i * n + j];
                broadcast[i * n + j] += bias.data()[j];
                transposed[j * m + i] = d[i * n + j];
            }
        }
        assert_eq!(bits(x.sum_rows().unwrap().data()), bits(&sums));
        let got = x.add_row_broadcast(&bias).unwrap();
        assert_eq!(got.dims(), &[m, n]);
        assert_eq!(bits(got.data()), bits(&broadcast));
        let got = x.transpose().unwrap();
        assert_eq!(got.dims(), &[n, m]);
        assert_eq!(bits(got.data()), bits(&transposed));
    }

    #[test]
    fn every_instance_matches_the_reference_past_one_k_chunk_and_one_a_block() {
        // k > KC exercises resuming from parked partial sums; m > MC
        // exercises several packed A blocks; n = 1 and n = 9 take the
        // transposed path for narrow products.
        for &(m, k, n) in &[
            (MC + 5, KC + 3, 37),
            (3, 2 * KC + 1, 70),
            (130, 600, 1),
            (97, KC + 40, 9),
        ] {
            check_all_forms(m, k, n, (m * k * n) as u64);
        }
    }

    #[test]
    fn zero_times_infinity_is_nan_in_every_form() {
        let zero = Tensor::from_vec(vec![0.0], &[1, 1]).unwrap();
        let inf = Tensor::from_vec(vec![f32::INFINITY], &[1, 1]).unwrap();
        assert!(zero.matmul(&inf).unwrap().data()[0].is_nan());
        assert!(zero.matmul_t(&inf).unwrap().data()[0].is_nan());
        assert!(zero.t_matmul(&inf).unwrap().data()[0].is_nan());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_instance_is_bit_identical_to_the_reference_loops(
            m in 0usize..=70,
            k in 0usize..=70,
            n in 0usize..=70,
            seed in 0u64..1 << 40,
        ) {
            check_all_forms(m, k, n, seed);
        }

        #[test]
        fn row_slice_ops_are_bit_identical_to_indexed_loops(
            m in 0usize..=70,
            n in 0usize..=70,
            seed in 0u64..1 << 40,
        ) {
            check_row_ops(m, n, seed);
        }
    }
}
