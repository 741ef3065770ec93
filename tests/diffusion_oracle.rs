//! FOS and SOS against the plain reference model of
//! `tests/oracle/mod.rs`, round by round and bit for bit: the paper's
//! `α`, the SOS recurrence of Muthukrishnan, Ghosh and Schultz (1998)
//! with its FOS warm-up round, and a memory that is the last round's
//! integral flows in discrete mode and its `f64` flows in continuous
//! mode. Each scheme runs 256 random specs.

mod oracle;

use oracle::{run_kind, Kind};

/// Random specs per scheme.
const SPECS: usize = 256;

#[test]
fn fos_matches_the_reference() {
    run_kind(Kind::Fos, SPECS);
}

#[test]
fn sos_matches_the_reference() {
    run_kind(Kind::Sos, SPECS);
}
