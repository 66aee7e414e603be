//! Tier-1 concurrency stress for the bounded equilibrium memo cache:
//! many threads hammer `estimate_candidates` on overlapping candidate
//! sets through one shared `CombinedModel`. Every concurrent result must
//! be bit-identical to a sequential reference, no lock may poison, and
//! the cache must never exceed its capacity — even when the bound is
//! tiny enough that the threads continuously evict each other's entries.

use cmpsim::machine::MachineConfig;
use mpmc_model::assignment::{Assignment, CombinedModel};
use mpmc_model::feature::FeatureVector;
use mpmc_model::histogram::ReuseHistogram;
use mpmc_model::power::PowerModel;
use mpmc_model::profile::ProcessProfile;
use mpmc_model::spi::SpiModel;

fn synthetic_profile(name: &str, tail: f64, api: f64, m: &MachineConfig) -> ProcessProfile {
    let head = 1.0 - tail;
    let hist =
        ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail).unwrap();
    let alpha = api * (m.mem_cycles - m.l2_hit_cycles) as f64 / m.freq_hz;
    let beta = (m.cpi_base + api * m.l2_hit_cycles as f64) / m.freq_hz;
    let feature =
        FeatureVector::new(name, hist, api, SpiModel::new(alpha, beta).unwrap(), m.l2_assoc())
            .unwrap();
    ProcessProfile {
        feature,
        l1rpi: 0.35,
        l2rpi: api,
        brpi: 0.2,
        fppi: 0.1,
        processor_alone_w: 60.0,
        idle_processor_w: 44.0,
    }
}

fn power_model() -> PowerModel {
    PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7]).unwrap()
}

/// A pool of distinct profiles plus a set of overlapping "current"
/// assignments; every (assignment, tentative process) query is one work
/// item shared by all threads.
fn workload(machine: &MachineConfig) -> (Vec<ProcessProfile>, Vec<(Assignment, usize)>) {
    let profiles: Vec<ProcessProfile> = (0..6)
        .map(|i| {
            synthetic_profile(
                &format!("p{i}"),
                0.10 + 0.12 * i as f64,
                0.015 + 0.004 * i as f64,
                machine,
            )
        })
        .collect();
    let mut queries = Vec::new();
    for a in 0..profiles.len() {
        for b in 0..profiles.len() {
            if a == b {
                continue;
            }
            // Process `a` already runs on core 0; where should `b` go?
            let mut current = Assignment::new(machine.num_cores());
            current.assign(0, a);
            queries.push((current, b));
        }
    }
    (profiles, queries)
}

#[test]
fn threaded_estimate_candidates_is_bit_identical_to_sequential() {
    let machine = MachineConfig::four_core_server();
    let power = power_model();
    let (profiles, queries) = workload(&machine);
    let cores: Vec<usize> = (0..machine.num_cores()).collect();

    // Sequential reference on a fresh model with an ample cache.
    let reference: Vec<Vec<u64>> = {
        let model = CombinedModel::new(&machine, &power);
        queries
            .iter()
            .map(|(current, idx)| {
                model
                    .estimate_candidates(&profiles, current, *idx, &cores, 1)
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect()
    };

    // A tiny bound forces continuous cross-thread eviction; a roomy one
    // exercises the mostly-hits path. Both must match the reference.
    for capacity in [8usize, 4096] {
        let model = CombinedModel::new(&machine, &power).with_equilibrium_cache_capacity(capacity);
        let model = &model;
        let profiles = &profiles;
        let queries = &queries;
        let reference = &reference;
        let cores = &cores;
        std::thread::scope(|scope| {
            for t in 0..8 {
                scope.spawn(move || {
                    // Each thread walks every query, offset so threads
                    // collide on different entries at any instant.
                    for step in 0..queries.len() {
                        let i = (step * 5 + t * 7) % queries.len();
                        let (current, idx) = &queries[i];
                        let got =
                            model.estimate_candidates(profiles, current, *idx, cores, 2).unwrap();
                        let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(bits, reference[i], "thread {t}, query {i}");
                    }
                });
            }
        });
        let stats = model.equilibrium_cache_stats();
        assert!(
            stats.entries <= stats.capacity,
            "capacity {capacity}: cache exceeded its bound: {stats:?}"
        );
        assert!(stats.die_entries <= stats.capacity, "die memo exceeded its bound: {stats:?}");
        assert!(stats.misses > 0);
        if capacity == 8 {
            assert!(stats.evictions > 0, "tiny bound must churn: {stats:?}");
        }
        // No lock was poisoned: the model still answers.
        let (current, idx) = &queries[0];
        let again = model.estimate_candidates(profiles, current, *idx, cores, 2).unwrap();
        let bits: Vec<u64> = again.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, reference[0]);
    }
}
