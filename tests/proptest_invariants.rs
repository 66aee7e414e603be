//! Property-based tests on the core data structures and invariants,
//! spanning crates.

use mpmc::math::interp::PiecewiseLinear;
use mpmc::model::equilibrium;
use mpmc::model::feature::FeatureVector;
use mpmc::model::histogram::ReuseHistogram;
use mpmc::model::occupancy::{OccupancyCurve, OccupancyOptions};
use mpmc::model::spi::SpiModel;
use mpmc::sim::cache::SetAssocCache;
use mpmc::sim::types::{LineAddr, ProcessId};
use proptest::prelude::*;

/// Strategy: normalized histogram weights over up to `depth` positions.
fn histogram_strategy(depth: usize) -> impl Strategy<Value = ReuseHistogram> {
    (
        proptest::collection::vec(0.0f64..10.0, 1..=depth),
        0.01f64..10.0, // always some infinite mass so curves stay generic
    )
        .prop_map(|(weights, inf)| {
            let total: f64 = weights.iter().sum::<f64>() + inf;
            let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
            ReuseHistogram::new(probs, inf / total).expect("normalized by construction")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_mpa_is_monotone_and_bounded(hist in histogram_strategy(12)) {
        let mut prev = 1.0f64 + 1e-12;
        for i in 0..40 {
            let s = i as f64 * 0.4;
            let m = hist.mpa(s);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
            prop_assert!(m <= prev + 1e-9, "MPA increased at s={s}");
            prev = m;
        }
        prop_assert!((hist.mpa(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_roundtrips_through_mpa_curve(hist in histogram_strategy(10)) {
        let curve: Vec<f64> = (0..=12).map(|s| hist.mpa_int(s)).collect();
        let back = ReuseHistogram::from_mpa_curve(&curve).unwrap();
        for (a, b) in hist.probs().iter().zip(back.probs()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        prop_assert!((hist.p_inf() - back.p_inf()).abs() < 1e-9);
    }

    #[test]
    fn occupancy_curve_is_monotone_and_bounded(hist in histogram_strategy(10), assoc in 2usize..16) {
        let g = OccupancyCurve::from_histogram(&hist, assoc, OccupancyOptions::default()).unwrap();
        let mut prev = -1.0;
        for i in 0..100 {
            let n = (i * i) as f64 * 0.5;
            let v = g.g(n);
            prop_assert!(v >= prev - 1e-9);
            prop_assert!(v <= assoc as f64 + 1e-9);
            prev = v;
        }
        // First access occupies exactly one line (paper: P_{1,1} = 1).
        prop_assert!((g.g(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_inverse_roundtrips(hist in histogram_strategy(8), s_frac in 0.05f64..0.95) {
        let g = OccupancyCurve::from_histogram(&hist, 8, OccupancyOptions::default()).unwrap();
        let s = s_frac * g.saturation().min(8.0);
        let n = g.g_inverse(s);
        if n < g.n_max() {
            prop_assert!((g.g(n) - s).abs() < 1e-5, "g({n}) = {} != {s}", g.g(n));
        }
    }

    #[test]
    fn equilibrium_respects_capacity_and_ranges(
        hist_a in histogram_strategy(12),
        hist_b in histogram_strategy(12),
        api_a in 0.002f64..0.05,
        api_b in 0.002f64..0.05,
    ) {
        let assoc = 16usize;
        let spi = SpiModel::new(2e-6 * api_a, 5e-8).unwrap();
        let a = FeatureVector::new("a", hist_a, api_a, spi, assoc).unwrap();
        let spi = SpiModel::new(2e-6 * api_b, 5e-8).unwrap();
        let b = FeatureVector::new("b", hist_b, api_b, spi, assoc).unwrap();
        let eq = equilibrium::solve(&[&a, &b], assoc).unwrap();
        let total: f64 = eq.sizes.iter().sum();
        if eq.cache_filled {
            prop_assert!((total - assoc as f64).abs() < 1e-2, "total ways {total}");
        } else {
            prop_assert!(total <= assoc as f64 + 1e-6);
        }
        for i in 0..2 {
            prop_assert!(eq.sizes[i] >= 0.0 && eq.sizes[i] <= assoc as f64 + 1e-9);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&eq.mpas[i]));
            prop_assert!(eq.spis[i] >= 5e-8 - 1e-12, "SPI below miss-free floor");
        }
    }

    #[test]
    fn curve_inversion_agrees_with_bisection_oracle(
        hists in proptest::collection::vec(histogram_strategy(14), 2..=4),
        apis in proptest::collection::vec(0.002f64..0.05, 4),
        assoc_pick in 0usize..3,
    ) {
        use mpmc::model::equilibrium::SolverKind;
        let assoc = [8usize, 12, 16][assoc_pick];
        let features: Vec<FeatureVector> = hists
            .iter()
            .zip(&apis)
            .enumerate()
            .map(|(i, (hist, &api))| {
                let spi = SpiModel::new(2e-6 * api, 5e-8).unwrap();
                FeatureVector::new(format!("p{i}"), hist.clone(), api, spi, assoc).unwrap()
            })
            .collect();
        let refs: Vec<&FeatureVector> = features.iter().collect();
        let inv = equilibrium::solve_cancellable(
            &refs, assoc, SolverKind::CurveInversion, &mpmc::math::sync::CancelToken::never(),
        );
        prop_assert!(inv.is_ok(), "{:?}", inv.err());
        let inv = inv.unwrap();
        // The oracle's outer bisection cannot converge where a dipping
        // response curve makes Σ S_i jump across A; agreement is checked
        // wherever the oracle answers.
        let Ok(oracle) = equilibrium::solve(&refs, assoc) else {
            return Ok(());
        };
        prop_assert_eq!(oracle.cache_filled, inv.cache_filled);
        for (x, y) in oracle.sizes.iter().zip(&inv.sizes) {
            prop_assert!((x - y).abs() < 1e-7, "oracle {} vs inversion {}", x, y);
        }
    }

    #[test]
    fn solve_batch_is_bit_identical_to_sequential_solves(
        hists in proptest::collection::vec(histogram_strategy(10), 3..=5),
        apis in proptest::collection::vec(0.002f64..0.05, 5),
        workers in 1usize..=8,
        scramble_seed in 0u64..1000,
    ) {
        use mpmc::model::equilibrium::CorunSet;
        use mpmc::model::equilibrium::SolverKind;
        use mpmc::model::perf::PerformanceModel;

        let assoc = 16usize;
        let mut features = Vec::new();
        for (i, hist) in hists.iter().enumerate() {
            let api = apis[i];
            let spi = SpiModel::new(2e-6 * api, 5e-8).unwrap();
            features.push(
                FeatureVector::new(format!("p{i}"), hist.clone(), api, spi, assoc).unwrap(),
            );
        }
        // Pairs and triples over the generated features, in an order
        // scrambled by a cheap deterministic permutation, plus one
        // duplicate of the first set.
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for i in 0..features.len() {
            for j in 0..features.len() {
                if i < j {
                    sets.push(vec![i, j]);
                }
            }
        }
        sets.push(vec![0, 1 % features.len(), 2 % features.len()]);
        sets.push(sets[0].clone());
        let n = sets.len();
        let rot = (scramble_seed as usize) % n;
        sets.rotate_left(rot);

        let corun: Vec<CorunSet<'_>> = sets
            .iter()
            .map(|idxs| CorunSet { features: idxs.iter().map(|&i| &features[i]).collect() })
            .collect();
        for kind in [SolverKind::CurveInversion, SolverKind::Bisection, SolverKind::Robust] {
            let model = PerformanceModel::new(assoc).with_solver(kind);
            let batch = model
                .solve_batch_cancellable(&corun, workers, &mpmc::math::sync::CancelToken::never())
                .into_iter()
                .collect::<Result<Vec<_>, _>>();
            prop_assert!(batch.is_ok(), "{kind:?}: {:?}", batch.err());
            let batch = batch.unwrap();
            for (i, (set, got)) in corun.iter().zip(&batch).enumerate() {
                let solo = model.solve(&set.features).unwrap();
                prop_assert_eq!(
                    solo.window.to_bits(), got.window.to_bits(),
                    "{:?} set {} workers {}", kind, i, workers
                );
                for (x, y) in solo.sizes.iter().zip(&got.sizes) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "{:?} set {} workers {}", kind, i, workers
                    );
                }
            }
        }
    }

    #[test]
    fn robust_solver_conserves_capacity_and_stays_finite(
        hist_a in histogram_strategy(12),
        hist_b in histogram_strategy(12),
        hist_c in histogram_strategy(12),
        api_a in 0.002f64..0.05,
        api_b in 0.002f64..0.05,
        api_c in 0.002f64..0.05,
    ) {
        let assoc = 16usize;
        let mut features = Vec::new();
        for (name, hist, api) in
            [("a", hist_a, api_a), ("b", hist_b, api_b), ("c", hist_c, api_c)]
        {
            let spi = SpiModel::new(2e-6 * api, 5e-8).unwrap();
            features.push(FeatureVector::new(name, hist, api, spi, assoc).unwrap());
        }
        let refs: Vec<&FeatureVector> = features.iter().collect();
        let robust = equilibrium::SolverKind::Robust;
        let eq = equilibrium::solve_cancellable(
            &refs, assoc, robust, &mpmc::math::sync::CancelToken::never(),
        )
        .unwrap();
        let total: f64 = eq.sizes.iter().sum();
        if eq.cache_filled {
            prop_assert!(
                (total - assoc as f64).abs() < 1e-2 * assoc as f64,
                "sum of ways {total} ({})",
                eq.diagnostics.summary()
            );
        } else {
            prop_assert!(total <= assoc as f64 + 1e-6);
        }
        for i in 0..refs.len() {
            prop_assert!(eq.sizes[i].is_finite() && eq.sizes[i] >= 0.0);
            prop_assert!(eq.mpas[i].is_finite());
            prop_assert!(eq.spis[i].is_finite() && eq.spis[i] > 0.0, "SPI must stay finite");
        }
    }

    #[test]
    fn cache_matches_lru_oracle(
        accesses in proptest::collection::vec((0u64..64, 0u32..3), 1..400),
        assoc in 1usize..8,
    ) {
        let num_sets = 4usize;
        let mut cache = SetAssocCache::new(num_sets, assoc);
        // Reference oracle: per-set LRU stacks.
        let mut oracle: Vec<Vec<u64>> = vec![Vec::new(); num_sets];
        for &(addr, owner) in &accesses {
            let set = (addr % num_sets as u64) as usize;
            let expect_hit = oracle[set].contains(&addr);
            let got = cache.access(LineAddr(addr), ProcessId(owner));
            prop_assert_eq!(got.is_hit(), expect_hit, "oracle disagreement at {}", addr);
            if let Some(pos) = oracle[set].iter().position(|&x| x == addr) {
                oracle[set].remove(pos);
            }
            oracle[set].insert(0, addr);
            oracle[set].truncate(assoc);
        }
        // Occupancy bookkeeping agrees with set contents.
        let by_owner: u64 = (0..3).map(|o| cache.lines_of(ProcessId(o))).sum();
        let resident: u64 = oracle.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(by_owner, resident);
        prop_assert_eq!(cache.resident_lines(), resident);
        prop_assert!(resident <= (num_sets * assoc) as u64);
    }

    #[test]
    fn piecewise_linear_inverse_is_consistent(
        mut knots in proptest::collection::vec((0.0f64..100.0, 0.0f64..10.0), 2..12),
    ) {
        // Build strictly increasing xs and non-decreasing ys.
        knots.sort_by(|a, b| a.0.total_cmp(&b.0));
        knots.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-6);
        prop_assume!(knots.len() >= 2);
        let xs: Vec<f64> = knots.iter().map(|k| k.0).collect();
        let mut acc = 0.0;
        let ys: Vec<f64> = knots.iter().map(|k| { acc += k.1; acc }).collect();
        let f = PiecewiseLinear::new(xs.clone(), ys.clone()).unwrap();
        for i in 0..20 {
            let x = xs[0] + (xs[xs.len() - 1] - xs[0]) * i as f64 / 19.0;
            let y = f.eval(x);
            let xi = f.inverse_monotone(y).unwrap();
            prop_assert!((f.eval(xi) - y).abs() < 1e-7);
        }
    }

    #[test]
    fn spi_model_fit_is_exact_on_linear_data(alpha in 0.0f64..1e-6, beta in 1e-9f64..1e-6) {
        let pts: Vec<(f64, f64)> = (0..6).map(|i| {
            let m = i as f64 / 6.0;
            (m, alpha * m + beta)
        }).collect();
        let fit = SpiModel::fit(&pts).unwrap();
        prop_assert!((fit.alpha() - alpha).abs() < 1e-12 + alpha * 1e-6);
        prop_assert!((fit.beta() - beta).abs() < 1e-12 + beta * 1e-6);
    }
}
