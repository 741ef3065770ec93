//! Corrupted checkpoints and journals fail **typed**, never panic.
//!
//! The on-disk checkpoint format is length-prefixed and
//! checksum-trailed, so every way a file can rot — truncation at any
//! byte, a flipped bit anywhere, a foreign file, a future format
//! version — must surface as the matching [`CheckpointError`] variant.
//! This suite exhaustively truncates and bit-flips a real snapshot and
//! asserts the typed outcome for every prefix/position; the batch
//! recovery layer (`tests/batch_recovery.rs`) additionally proves a
//! rotten checkpoint quarantines only its own scenario.

use std::fs;
use std::path::PathBuf;

use sodiff::{read_checkpoint, write_checkpoint, CheckpointError, ScenarioSpec, StopCondition};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodiff-corrupt-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real checkpoint (10 rounds of a seeded cycle run) as raw bytes.
fn checkpoint_bytes(dir: &std::path::Path) -> Vec<u8> {
    let spec: ScenarioSpec =
        "name=victim topology=cycle:17 rounding=randomized seed=3 init=point:0:1700 \
         stop=rounds:45"
            .parse()
            .unwrap();
    let graph = spec.build_graph().unwrap();
    let experiment = spec.experiment_on(&graph).unwrap();
    let mut sim = experiment.simulator();
    sim.run_until(StopCondition::MaxRounds(10));
    let path = dir.join("victim.ckpt");
    write_checkpoint(&path, &spec, &sim.snapshot()).unwrap();
    fs::read(&path).unwrap()
}

#[test]
fn truncation_at_every_byte_is_typed() {
    let dir = scratch_dir("truncate");
    let bytes = checkpoint_bytes(&dir);
    let path = dir.join("truncated.ckpt");
    for len in 0..bytes.len() {
        fs::write(&path, &bytes[..len]).unwrap();
        let err = read_checkpoint(&path).expect_err("truncated checkpoint must not load");
        // Short prefixes die on the structural checks, longer ones on
        // the trailing checksum — never anything untyped, never a panic.
        assert!(
            matches!(
                err,
                CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
            ),
            "prefix of {len} bytes: unexpected {err:?}"
        );
    }
    // The untruncated bytes still load (the fixture itself is valid).
    fs::write(&path, &bytes).unwrap();
    read_checkpoint(&path).unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_at_every_byte_is_typed() {
    let dir = scratch_dir("bitflip");
    let bytes = checkpoint_bytes(&dir);
    let path = dir.join("flipped.ckpt");
    for pos in 0..bytes.len() {
        let mut rotten = bytes.clone();
        rotten[pos] ^= 0x40;
        fs::write(&path, &rotten).unwrap();
        let err = read_checkpoint(&path).expect_err("corrupted checkpoint must not load");
        let expected = match pos {
            // Inside the magic: recognized as "not a checkpoint at all".
            0..=7 => matches!(err, CheckpointError::BadMagic),
            // Inside the version word: an unsupported format.
            8..=11 => matches!(err, CheckpointError::UnsupportedVersion { .. }),
            // Anywhere else — payload or the stored digest itself — the
            // FNV trailer catches it.
            _ => matches!(err, CheckpointError::ChecksumMismatch { .. }),
        };
        assert!(expected, "flip at byte {pos}: unexpected {err:?}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_bump_and_foreign_files_are_typed() {
    let dir = scratch_dir("version");
    let bytes = checkpoint_bytes(&dir);

    // Every version but 2 is refused by number, before the checksum is
    // checked: future (v3+), nonsense (0), and the pre-churn version 1,
    // whose reader is gone.
    for found in [0u32, 1, 3, 4, 0x7f7f_7f7f] {
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&found.to_le_bytes());
        let path = dir.join("future.ckpt");
        fs::write(&path, &future).unwrap();
        match read_checkpoint(&path).unwrap_err() {
            CheckpointError::UnsupportedVersion { found: got } => assert_eq!(got, found),
            other => panic!("version {found}: unexpected {other:?}"),
        }
    }

    // A file that was never a checkpoint.
    let path = dir.join("foreign.ckpt");
    fs::write(&path, b"name=not-a-checkpoint topology=cycle:8\n").unwrap();
    assert!(matches!(
        read_checkpoint(&path).unwrap_err(),
        CheckpointError::BadMagic
    ));

    // A missing file is an Io error carrying the path.
    let missing = dir.join("nope.ckpt");
    match read_checkpoint(&missing).unwrap_err() {
        CheckpointError::Io { path, .. } => assert_eq!(path, missing),
        other => panic!("unexpected {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

/// The pre-churn version-1 format is no longer read: the committed
/// version-1 fixture (`tests/fixtures/checkpoint_v1.ckpt`, the
/// crash-churn golden scenario frozen at round 33 by a v1 writer) is
/// refused by its version number.
#[test]
fn committed_v1_fixture_is_refused_as_unsupported() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1.ckpt");
    let bytes = fs::read(&path).unwrap();
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        1,
        "the committed fixture must actually be a version-1 file"
    );
    assert_eq!(
        read_checkpoint(&path).unwrap_err(),
        CheckpointError::UnsupportedVersion { found: 1 }
    );
}

/// Restores `ckpt` into a fresh simulator of its own spec, runs it to
/// round `end`, and returns the FNV-1a state digest
/// `tests/golden_trace.rs` pins (integer loads, previous flows, minimum
/// transient load).
fn resumed_digest(ckpt: &sodiff::Checkpoint, end: u64) -> u64 {
    let graph = ckpt.spec.build_graph().unwrap();
    let experiment = ckpt.spec.experiment_on(&graph).unwrap();
    let mut resumed = experiment.simulator();
    resumed.restore(&ckpt.snapshot).unwrap();
    resumed.run_until(StopCondition::MaxRounds(
        (end - ckpt.snapshot.round()) as usize,
    ));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for &x in resumed.loads_i64().unwrap().iter() {
        eat(&x.to_le_bytes());
    }
    for &f in resumed.previous_flows().iter() {
        eat(&f.to_bits().to_le_bytes());
    }
    eat(&resumed.min_transient_load().to_bits().to_le_bytes());
    h
}

/// The current on-disk format, pinned: the committed version-2 fixture
/// (`tests/fixtures/checkpoint_v2.ckpt`, the churn golden scenario
/// frozen at round 33) is byte-identical to a checkpoint written fresh
/// from its own spec, and resumes to the exact pinned golden checksum of
/// `tests/golden_trace.rs::torus_sos_flux`.
#[test]
fn committed_v2_fixture_matches_a_fresh_write_and_resumes() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v2.ckpt");
    let bytes = fs::read(&path).unwrap();
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
    let ckpt = read_checkpoint(&path).unwrap();
    assert_eq!(ckpt.snapshot.round(), 33);
    assert!(!ckpt.spec.churn.is_none(), "the fixture exercises churn");

    let graph = ckpt.spec.build_graph().unwrap();
    let mut fresh = ckpt.spec.experiment_on(&graph).unwrap().simulator();
    fresh.run_until(StopCondition::MaxRounds(33));
    let dir = scratch_dir("v2fix");
    let rewritten = dir.join("v2fix.ckpt");
    write_checkpoint(&rewritten, &ckpt.spec, &fresh.snapshot()).unwrap();
    assert!(
        fs::read(&rewritten).unwrap() == bytes,
        "a fresh write of the fixture's spec must reproduce its bytes"
    );
    fs::remove_dir_all(&dir).ok();

    assert_eq!(
        resumed_digest(&ckpt, 64),
        0x7e2c2b500623f7e6,
        "v2 fixture resumed diverged from the pinned golden trace"
    );
}

#[test]
fn header_spec_is_parse_checked() {
    // A checksum-valid checkpoint whose embedded spec line no longer
    // parses (e.g. written by a newer grammar) must fail typed, not
    // crash the resume. Rebuild the file by hand: magic + version +
    // garbled spec + payload, re-checksummed.
    let dir = scratch_dir("spec");
    let bytes = checkpoint_bytes(&dir);
    let spec_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut rotten = bytes.clone();
    // Overwrite the spec line with same-length garbage so every offset
    // (and the length prefix) stays valid.
    for b in &mut rotten[16..16 + spec_len] {
        *b = b'?';
    }
    rechecksum(&mut rotten);
    let path = dir.join("badspec.ckpt");
    fs::write(&path, &rotten).unwrap();
    assert!(matches!(
        read_checkpoint(&path).unwrap_err(),
        CheckpointError::Spec(_)
    ));
    fs::remove_dir_all(&dir).ok();
}

/// Recomputes the trailing FNV-1a over everything before the digest, so
/// an edited file passes the checksum and reaches the payload checks.
fn rechecksum(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[..body_len] {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    bytes[body_len..].copy_from_slice(&h.to_le_bytes());
}

/// A checksum-valid file with junk spliced in between the snapshot and
/// the checksum is refused with the leftover byte count, not loaded as
/// if clean.
#[test]
fn spliced_trailing_bytes_are_typed() {
    let dir = scratch_dir("trailing");
    let bytes = checkpoint_bytes(&dir);
    let body_end = bytes.len() - 8;
    let mut spliced = bytes[..body_end].to_vec();
    spliced.extend_from_slice(&[0xa5; 24]);
    spliced.extend_from_slice(&bytes[body_end..]);
    rechecksum(&mut spliced);
    let path = dir.join("trailing.ckpt");
    fs::write(&path, &spliced).unwrap();
    assert_eq!(
        read_checkpoint(&path).unwrap_err(),
        CheckpointError::TrailingBytes(24)
    );
    fs::remove_dir_all(&dir).ok();
}

/// A checksum-valid file whose divergence-watchdog ring position lies
/// outside its 16-slot ring is refused typed: resuming it with a fresh
/// watchdog instead would not continue the run exactly.
#[test]
fn impossible_watchdog_ring_is_typed() {
    let dir = scratch_dir("ring");
    let bytes = checkpoint_bytes(&dir);
    // The victim runs `stop=rounds` without churn, so its file ends with
    // the watchdog's `pos` word, the absent steady and plateau flags, the
    // five churn counters, the empty overlay's length and the checksum.
    let pos = bytes.len() - (8 + 1 + 1 + 5 * 8 + 8 + 8);
    let with_pos = |value: u64| {
        let mut edited = bytes.clone();
        edited[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
        rechecksum(&mut edited);
        let path = dir.join("ring.ckpt");
        fs::write(&path, &edited).unwrap();
        read_checkpoint(&path)
    };
    // The last slot still loads, so the edit hits the watchdog's `pos`.
    assert_eq!(with_pos(15).unwrap().snapshot.round(), 10);
    match with_pos(16).unwrap_err() {
        CheckpointError::Mismatch(msg) => assert!(msg.contains("watchdog ring"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}
