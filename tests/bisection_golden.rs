//! Golden digests of the nested-bisection equilibrium oracle.
//!
//! `equilibrium::solve` is the reference every other solver is checked
//! against, and optimizations of its inner loops must not move a bit.
//! This test solves every pair of the duo-study presets (a superset of
//! Table 1), each preset against itself, and a fixed list of triples and
//! quadruples, on the 16-way server and the 12-way duo laptop. Each
//! set's sizes, MPAs, SPIs and window are folded into one FNV-1a digest
//! and compared against `golden/bisection_oracle.txt`.
//!
//! An intended change of the oracle's output replaces the file with the
//! lines this test prints on a mismatch.

use mpmc::model::equilibrium;
use mpmc::model::feature::FeatureVector;
use mpmc::sim::machine::MachineConfig;
use mpmc::workloads::spec::SpecWorkload;

/// Preset indices into [`SpecWorkload::duo_suite`]:
/// gzip vpr mcf bzip2 twolf art equake ammp gcc parser.
const GROUPS: [&[usize]; 8] = [
    &[2, 0, 5],
    &[1, 4, 6],
    &[3, 7, 8],
    &[9, 2, 2],
    &[5, 6, 7],
    &[0, 1, 9],
    &[2, 5, 0, 4],
    &[8, 9, 3, 6],
];

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest_lines(machine: &MachineConfig) -> Vec<String> {
    let suite = SpecWorkload::duo_suite();
    let fvs: Vec<FeatureVector> = suite
        .iter()
        .map(|w| FeatureVector::from_workload(&w.params(), machine).expect("preset feature"))
        .collect();
    let mut sets: Vec<Vec<usize>> = Vec::new();
    for i in 0..fvs.len() {
        for j in i..fvs.len() {
            sets.push(vec![i, j]);
        }
    }
    sets.extend(GROUPS.iter().map(|g| g.to_vec()));
    let assoc = machine.l2_assoc();
    sets.iter()
        .map(|set| {
            let features: Vec<&FeatureVector> = set.iter().map(|&i| &fvs[i]).collect();
            let eq = equilibrium::solve(&features, assoc).expect("preset sets solve");
            let values = eq.sizes.iter().chain(&eq.mpas).chain(&eq.spis);
            let digest =
                fnv1a(values.map(|v| v.to_bits()).chain(std::iter::once(eq.window.to_bits())));
            let names: Vec<&str> = set.iter().map(|&i| suite[i].name()).collect();
            format!("{digest:016x} {assoc} {}", names.join("+"))
        })
        .collect()
}

#[test]
fn bisection_oracle_matches_golden_digests() {
    let golden: Vec<&str> = include_str!("golden/bisection_oracle.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let mut got = digest_lines(&MachineConfig::four_core_server());
    got.extend(digest_lines(&MachineConfig::duo_laptop()));
    assert_eq!(got.len(), golden.len(), "set count changed; digests now:\n{}", got.join("\n"));
    let moved: Vec<&String> =
        got.iter().zip(&golden).filter(|(g, w)| g != w).map(|p| p.0).collect();
    assert!(
        moved.is_empty(),
        "{} of {} bisection results changed bits:\n{}\n\ndigests now:\n{}",
        moved.len(),
        got.len(),
        moved.iter().map(|s| s.as_str()).collect::<Vec<_>>().join("\n"),
        got.join("\n")
    );
}
