//! Dimension exchange and matching balancing against the plain reference
//! model of `tests/oracle/mod.rs`, round by round and bit for bit. In a
//! pairwise round each active edge, a matching edge, balances its two
//! endpoints with the λ-scaled harmonic-speed pair and no memory term, so
//! a pairwise run's memory reads as zeros and its state is its loads
//! alone (`8·n` bytes), in every mode. Each scheme runs 64 random specs.

mod oracle;

use oracle::{run_kind, Kind};

/// Random specs per scheme.
const SPECS: usize = 64;

#[test]
fn dimension_exchange_matches_the_reference() {
    run_kind(Kind::DimensionExchange, SPECS);
}

#[test]
fn round_robin_matching_matches_the_reference() {
    run_kind(Kind::RoundRobin, SPECS);
}

#[test]
fn random_matching_matches_the_reference() {
    run_kind(Kind::RandomMatching, SPECS);
}
