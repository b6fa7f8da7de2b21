//! Property-based tests for tensor algebra invariants.

use proptest::prelude::*;
use schemoe_tensor::Tensor;

/// Strategy: a matrix of the given dimensions with small finite entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).unwrap())
}

proptest! {
    #[test]
    fn matmul_identity_is_noop(a in matrix(4, 4)) {
        let i = Tensor::eye(4);
        let left = i.matmul(&a).unwrap();
        let right = a.matmul(&i).unwrap();
        prop_assert!(left.max_abs_diff(&a).unwrap() < 1e-4);
        prop_assert!(right.max_abs_diff(&a).unwrap() < 1e-4);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)
    ) {
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-2);
    }

    #[test]
    fn transpose_is_involution(a in matrix(5, 3)) {
        let tt = a.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(tt.data(), a.data());
        prop_assert_eq!(tt.dims(), a.dims());
    }

    #[test]
    fn matmul_t_consistent_with_explicit_transpose(
        a in matrix(3, 5), b in matrix(4, 5)
    ) {
        // One kernel and one summation order: equal bit for bit.
        let fused = a.matmul_t(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        prop_assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn t_matmul_consistent_with_explicit_transpose(
        a in matrix(5, 3), b in matrix(5, 4)
    ) {
        // One kernel and one summation order: equal bit for bit.
        let fused = a.t_matmul(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        prop_assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn softmax_rows_are_probability_distributions(a in matrix(6, 8)) {
        let s = a.softmax_rows().unwrap();
        for i in 0..6 {
            let row = s.row(i);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in matrix(2, 5), shift in -50.0f32..50.0) {
        let s1 = a.softmax_rows().unwrap();
        let s2 = a.map(|v| v + shift).softmax_rows().unwrap();
        prop_assert!(s1.max_abs_diff(&s2).unwrap() < 1e-4);
    }

    #[test]
    fn scale_then_sum_commutes(a in matrix(3, 3), s in -5.0f32..5.0) {
        let lhs = a.scale(s).sum();
        let rhs = a.sum() * s;
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
    }

    #[test]
    fn reshape_preserves_sum(a in matrix(4, 6)) {
        let r = a.reshape(&[2, 12]).unwrap();
        prop_assert_eq!(r.sum(), a.sum());
        prop_assert_eq!(r.numel(), a.numel());
    }

    #[test]
    fn sum_rows_matches_total_sum(a in matrix(5, 7)) {
        let s = a.sum_rows().unwrap();
        prop_assert!((s.sum() - a.sum()).abs() < 1e-3 * (1.0 + a.sum().abs()));
    }
}
