//! The matching invariant of the pairwise schemes: every active set a
//! dimension-exchange or matching plan yields is a matching, so in a
//! round each node balances with at most one neighbour and each endpoint
//! of an active edge has one writer.
//!
//! Checked on the plans themselves — the closed-form torus and hypercube
//! colorings, the greedy coloring, the round-robin maximal matchings and
//! the per-round random matchings — on every generator family, and on the
//! masks the engine's rounds actually run: the plan composed with crash,
//! edge-drop and churn-flux perturbation, on the sequential executor and
//! on a pool.

use sodiff::core::kernel::KernelTables;
use sodiff::core::matchgen::{self, MatchScratch};
use sodiff::graph::matching::{self, EdgeColoring};
use sodiff::graph::{generators, Graph};
use sodiff::prelude::*;

/// One graph of every generator family, small enough for debug builds,
/// with the tori and the hypercube (which take the closed-form coloring)
/// in both parities.
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("torus2d even", generators::torus2d(6, 8)),
        ("torus2d odd", generators::torus2d(5, 7)),
        ("torus3d", generators::torus(&[4, 3, 4])),
        ("hypercube", generators::hypercube(5)),
        ("cycle even", generators::cycle(10)),
        ("cycle odd", generators::cycle(9)),
        ("path", generators::path(7)),
        ("complete", generators::complete(9)),
        ("star", generators::star(8)),
        ("grid2d", generators::grid2d(5, 6)),
        ("erdos_renyi", generators::erdos_renyi(40, 0.15, 3)),
        (
            "random_regular",
            generators::random_regular(30, 4, 5).unwrap(),
        ),
        ("geometric", generators::random_geometric(60, 2.0, 2)),
        ("random_cm", generators::random_graph_cm(40, 7).unwrap()),
        ("rgg_paper", generators::rgg_paper(64, 5)),
    ]
}

/// The edge ids set in `mask`.
fn edge_ids(mask: &[u64]) -> Vec<u32> {
    (0..64 * mask.len() as u32)
        .filter(|&e| (mask[e as usize / 64] >> (e % 64)) & 1 == 1)
        .collect()
}

/// Every class of `coloring` is a matching, and together they cover
/// every edge once.
fn assert_classes_are_matchings(name: &str, g: &Graph, coloring: &EdgeColoring) {
    let masks = coloring.class_masks();
    let mut covered = 0;
    for (c, mask) in masks.iter().enumerate() {
        assert!(matching::mask_is_matching(g, mask), "{name}: class {c}");
        assert!(
            matching::is_matching(g, &edge_ids(mask)),
            "{name}: class {c}"
        );
        covered += edge_ids(mask).len();
    }
    assert_eq!(
        covered,
        g.edge_count(),
        "{name}: the classes partition the edges"
    );
}

#[test]
fn de_color_classes_are_matchings() {
    for (name, g) in families() {
        // `edge_coloring` takes the closed form on tori and hypercubes and
        // the greedy coloring elsewhere; the greedy one is checked on
        // every family as well.
        assert_classes_are_matchings(name, &g, &matching::edge_coloring(&g));
        assert_classes_are_matchings(name, &g, &matching::greedy_edge_coloring(&g));
    }
}

#[test]
fn round_robin_family_is_maximal_matchings() {
    for (name, g) in families() {
        let family = matching::maximal_matchings(&g, &matching::edge_coloring(&g));
        for (c, mask) in family.iter().enumerate() {
            assert!(matching::mask_is_matching(&g, mask), "{name}: matching {c}");
            assert!(
                matching::is_maximal_matching(&g, &edge_ids(mask)),
                "{name}: matching {c}"
            );
        }
    }
}

#[test]
fn random_matchings_are_maximal_over_many_rounds() {
    for (name, g) in families() {
        let t = KernelTables::new(&g, &Speeds::uniform(g.node_count()), false, 0.0);
        let pairs = matchgen::edge_pairs(&t);
        let mut scratch = MatchScratch::default();
        for round in 0..200 {
            matchgen::fill_random_matching(11, round, &t, &pairs, &mut scratch);
            let mask = &scratch.mask;
            assert!(matching::mask_is_matching(&g, mask), "{name} round {round}");
            assert!(
                matching::is_maximal_matching(&g, &edge_ids(mask)),
                "{name} round {round}"
            );
        }
    }
}

/// A bitmask that shares an endpoint, or sets a bit past the edge count,
/// is refused.
#[test]
fn mask_is_matching_refuses_shared_endpoints_and_stray_bits() {
    let g = generators::path(4); // edges 0-1, 1-2, 2-3
    assert!(matching::mask_is_matching(&g, &[0b101]));
    assert!(!matching::mask_is_matching(&g, &[0b011]));
    assert!(!matching::mask_is_matching(&g, &[0b1000]));
    assert!(matching::mask_is_matching(&g, &[0]));
}

/// The perturbation channels the engine composes with a plan's mask:
/// none, crash, edge drops, churn flux, and all three at once.
fn perturbations() -> Vec<(&'static str, FaultSpec, ChurnSpec)> {
    let flux = ChurnSpec::none().with_flux(0.08, 0.3, 9).with_initial(25.0);
    vec![
        ("none", FaultSpec::none(), ChurnSpec::none()),
        (
            "crash",
            FaultSpec::none().with_crash(0.2, 7),
            ChurnSpec::none(),
        ),
        (
            "edgedrop",
            FaultSpec::none().with_edgedrop(0.1, 9),
            ChurnSpec::none(),
        ),
        ("flux", FaultSpec::none(), flux),
        (
            "crash+edgedrop+flux",
            FaultSpec::none().with_crash(0.1, 7).with_edgedrop(0.05, 9),
            flux,
        ),
    ]
}

/// Every round of every pairwise scheme, as the engine runs it — the plan
/// composed with the perturbation channels — is gated by a matching, on
/// the sequential executor and on a pool, across several crash and churn
/// epochs.
#[test]
fn every_engine_round_of_a_pairwise_scheme_is_a_matching() {
    let schemes = [
        Scheme::dimension_exchange(1.0),
        Scheme::matching_round_robin(1.0),
        Scheme::matching_random(5, 1.0),
    ];
    for (name, g) in families() {
        for scheme in schemes {
            for (set, faults, churn) in perturbations() {
                for threads in [1, 2] {
                    let mut sim = Experiment::on(&g)
                        .discrete(Rounding::nearest())
                        .scheme(scheme)
                        .threads(threads)
                        .init(InitialLoad::point(0, 100 * g.node_count() as i64))
                        .faults(faults)
                        .churn(churn)
                        .build()
                        .unwrap()
                        .simulator();
                    for _ in 0..48 {
                        sim.step_inspect(&mut |inputs| {
                            let round = inputs.round;
                            let case = format!("{name} {scheme} {set} t={threads} round {round}");
                            let active = inputs.active.expect(&case);
                            assert!(matching::mask_is_matching(&g, active), "{case}");
                        });
                    }
                }
            }
        }
    }
}
