//! Property-based equivalence of the three inference formulations:
//! fused sparse ≡ two-semiring oscillation ≡ dense baseline, on random
//! RadiX-Net and unstructured networks with random sparse batches.

use dnn::infer::{
    categories, equivalent, infer_dense, infer_fused, infer_two_semiring, try_infer_fused_ctx,
    try_infer_two_semiring_ctx,
};
use dnn::input::sparse_batch;
use dnn::radix::{radix_net, random_net, RadixNetParams};
use hypersparse::{DenseMat, OpCtx};
use proptest::prelude::*;
use semiring::PlusTimes;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_three_formulations_agree_on_radix_nets(
        seed in 0u64..1000,
        fanin_pow in 1u32..4,
        depth in 1usize..8,
        density in 1u32..8,
    ) {
        let n = 64u64;
        let net = radix_net(
            RadixNetParams {
                n_neurons: n,
                fanin: 1 << fanin_pow,
                depth,
                bias: -0.1,
            },
            seed,
        );
        let y0 = sparse_batch(4, n, density as f64 / 10.0, seed ^ 0xBEEF);

        let fused = infer_fused(&net, &y0);
        let pair = infer_two_semiring(&net, &y0);
        prop_assert_eq!(&fused, &pair);

        let dense = infer_dense(&net, &DenseMat::from_dcsr(&y0, PlusTimes::<f64>::new()));
        prop_assert!(equivalent(&fused, &dense, 1e-9));
    }

    #[test]
    fn all_three_formulations_agree_on_random_nets(
        seed in 0u64..1000,
        nnz in 50usize..400,
        depth in 1usize..6,
    ) {
        let n = 48u64;
        let net = random_net(n, nnz, depth, -0.05, seed);
        let y0 = sparse_batch(3, n, 0.25, seed ^ 0xF00D);

        let fused = infer_fused(&net, &y0);
        let pair = infer_two_semiring(&net, &y0);
        prop_assert_eq!(&fused, &pair);

        let dense = infer_dense(&net, &DenseMat::from_dcsr(&y0, PlusTimes::<f64>::new()));
        prop_assert!(equivalent(&fused, &dense, 1e-9));
    }

    #[test]
    fn categories_are_stable_across_formulations(seed in 0u64..200) {
        let n = 64u64;
        let net = radix_net(
            RadixNetParams { n_neurons: n, fanin: 8, depth: 4, bias: -0.1 },
            seed,
        );
        let y0 = sparse_batch(6, n, 0.2, seed);
        prop_assert_eq!(
            categories(&infer_fused(&net, &y0)),
            categories(&infer_two_semiring(&net, &y0))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Satellite: the fused kernel's deterministic row sharding must make
    // inference bit-identical at every thread count, and the fused and
    // two-semiring paths must agree under each of those counts too.
    #[test]
    fn inference_is_thread_invariant_on_radix_nets(
        seed in 0u64..500,
        depth in 2usize..8,
    ) {
        let n = 128u64;
        let net = radix_net(
            RadixNetParams { n_neurons: n, fanin: 4, depth, bias: -0.2 },
            seed,
        );
        let y0 = sparse_batch(8, n, 0.3, seed ^ 0xD00D);

        let single = OpCtx::new().with_threads(1);
        let fused_1 = try_infer_fused_ctx(&single, &net, &y0).unwrap();
        let pair_1 = try_infer_two_semiring_ctx(&single, &net, &y0).unwrap();
        prop_assert_eq!(&fused_1, &pair_1);

        for threads in [2usize, 4] {
            let ctx = OpCtx::new().with_threads(threads);
            let fused_t = try_infer_fused_ctx(&ctx, &net, &y0).unwrap();
            // Bit-identical: Dcsr equality is exact on values.
            prop_assert_eq!(&fused_t, &fused_1, "fused @ {} threads", threads);
            let pair_t = try_infer_two_semiring_ctx(&ctx, &net, &y0).unwrap();
            prop_assert_eq!(&pair_t, &pair_1, "two-semiring @ {} threads", threads);
        }

        let dense = infer_dense(&net, &DenseMat::from_dcsr(&y0, PlusTimes::<f64>::new()));
        prop_assert!(equivalent(&fused_1, &dense, 1e-9));
    }
}
