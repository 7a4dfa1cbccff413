//! Property-based tests over the whole stack: for random data, random
//! pipelines parameters, and random cluster shapes, the distributed engine
//! must agree exactly (integers) or to rounding (floats) with the sequential
//! semantics.

use proptest::prelude::*;
use triolet::prelude::*;

mod common;
use common::shapes;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn par_sum_equals_seq_sum(
        xs in proptest::collection::vec(-1000i64..1000, 0..400),
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let expect: i64 = xs.iter().sum();
        let got = rt.sum(from_vec(xs).par());
        prop_assert_eq!(got.value, expect);
    }

    #[test]
    fn par_filter_count_equals_seq(
        xs in proptest::collection::vec(any::<i32>(), 0..400),
        modulus in 1i32..20,
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let expect = xs.iter().filter(|&&x| x.rem_euclid(modulus) == 0).count() as u64;
        let got = rt.count(
            from_vec(xs).filter(move |x: &i32| x.rem_euclid(modulus) == 0).par(),
        );
        prop_assert_eq!(got.value, expect);
    }

    #[test]
    fn par_histogram_equals_seq(
        xs in proptest::collection::vec(0usize..50, 0..500),
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let mut expect = vec![0u64; 50];
        for &x in &xs {
            expect[x] += 1;
        }
        let got = rt.histogram(50, from_vec(xs).par());
        prop_assert_eq!(got.value, expect);
    }

    #[test]
    fn par_build_vec_preserves_order(
        xs in proptest::collection::vec(any::<u32>(), 0..300),
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let expect: Vec<u64> = xs.iter().map(|&x| x as u64 + 7).collect();
        let got = rt.build_vec(from_vec(xs).map(|x: u32| x as u64 + 7).par(), &(), |_, x| x);
        prop_assert_eq!(got.value, expect);
    }

    #[test]
    fn par_concat_map_sum_equals_seq(
        xs in proptest::collection::vec(0i64..30, 0..120),
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let expect: i64 = xs.iter().flat_map(|&x| 0..x).sum();
        let it = from_vec(xs)
            .concat_map(|x: i64| triolet::StepFlat::new(0..x))
            .par();
        let got = rt.sum(it);
        prop_assert_eq!(got.value, expect);
    }

    #[test]
    fn par_reduce_min_equals_seq(
        xs in proptest::collection::vec(any::<i64>(), 0..300),
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let expect = xs.iter().copied().min();
        let got = rt.reduce(from_vec(xs).par(), i64::min);
        prop_assert_eq!(got.value, expect);
    }

    #[test]
    fn build_array2_matches_from_fn(
        rows in 1usize..20,
        cols in 1usize..20,
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let got = rt.build_array2(
            range2d(rows, cols).map(|(r, c): (usize, usize)| (r * 31 + c) as i64).par(),
        );
        let expect = triolet::Array2::from_fn(rows, cols, |r, c| (r * 31 + c) as i64);
        prop_assert_eq!(got.value, expect);
    }

    #[test]
    fn scatter_add_equals_seq(
        pairs in proptest::collection::vec((0usize..64, -100i32..100), 0..400),
        (nodes, tpn) in shapes(8, 8),
    ) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let items: Vec<(usize, f64)> =
            pairs.iter().map(|&(b, w)| (b, w as f64)).collect();
        let mut expect = vec![0.0f64; 64];
        for &(b, w) in &items {
            expect[b] += w;
        }
        let got = rt.scatter_add(64, from_vec(items).par());
        for (g, e) in got.value.iter().zip(&expect) {
            prop_assert!((g - e).abs() < 1e-9);
        }
    }
}
