//! Property tests for the v2 journal frame format (DESIGN.md §13): any
//! printable payload round-trips through a frame; **every** single-bit
//! flip of **every** byte of a frame is detected by the parser; salvage
//! never keeps a record at or past the first corrupted byte; and a second
//! salvage appends to the quarantine rather than replacing it.

use std::path::PathBuf;

use dphpo_core::experiment::ExperimentConfig;
use dphpo_core::journal::{EvalEntry, FaultKind};
use dphpo_core::{crc32, frame_line, parse_frame, salvage, verify, JournalWriter};
use proptest::prelude::*;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-frames-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// A real journal of `n` evaluation records with generated numeric
/// content, written through the production writer.
fn synthetic_journal(path: &PathBuf, n: usize, g0: f64, g1: f64, minutes: f64) -> Vec<u8> {
    let config = ExperimentConfig::smoke();
    let mut writer = JournalWriter::create(path, &config).expect("create journal");
    for i in 0..n {
        let entry = EvalEntry {
            run: 0,
            gen: i / 4,
            slot: i % 4,
            seed: i as u64,
            genome: vec![g0 + i as f64, g1 * (i + 1) as f64],
            fault: FaultKind::None,
            fault_step: None,
            fault_loss: None,
            objectives: Some(vec![g0 * g1 + i as f64, minutes + i as f64]),
            minutes: minutes + i as f64,
            attempts: 1,
            lcurve_tail: Vec::new(),
            arrival: None,
        };
        writer.append_eval(&entry).expect("append");
    }
    std::fs::read(path).expect("read back")
}

/// A second salvage appends to the quarantine: the bytes the first one
/// moved there are still there, in front of the second tail.
#[test]
fn a_second_salvage_keeps_the_first_ones_quarantined_bytes() {
    let path = scratch("salvage-twice.jsonl");
    let quarantine = PathBuf::from(format!("{}.quarantine", path.display()));
    let _ = std::fs::remove_file(&quarantine);
    let clean = synthetic_journal(&path, 3, 1.0, 2.0, 30.0);
    let (tail_one, tail_two) = (b"GARBAGE-ONE\n", b"GARBAGE-TWO\n");
    let mut damaged = clean.clone();
    for tail in [tail_one, tail_two] {
        damaged.extend_from_slice(tail);
        std::fs::write(&path, &damaged).unwrap();
        let report = salvage(&path).expect("salvage");
        assert_eq!(report.quarantined_bytes as usize, tail.len());
        assert_eq!(std::fs::read(&path).unwrap(), clean, "salvage restores the clean journal");
        damaged = clean.clone();
    }
    assert_eq!(std::fs::read(&quarantine).unwrap(), [&tail_one[..], &tail_two[..]].concat());
    let _ = std::fs::remove_file(&quarantine);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_printable_payload_round_trips_through_a_frame(
        payload in "[ -~]{0,120}",
        seq in 0i64..0x1_0000_0000,
    ) {
        let seq = seq as u64;
        let line = frame_line(seq, &payload);
        prop_assert!(line.starts_with("J2 "));
        prop_assert!(line.ends_with('\n'));
        let body = &line[..line.len() - 1];
        let parsed = parse_frame(body, seq).expect("a freshly framed line must parse");
        prop_assert_eq!(parsed, payload.as_str());
        // The crc field is the payload checksum, spelled in lowercase hex.
        prop_assert_eq!(&body[21..29], format!("{:08x}", crc32(payload.as_bytes())).as_str());
        // A wrong expected sequence is rejected even on an intact frame.
        prop_assert!(parse_frame(body, seq + 1).is_err());
    }

    #[test]
    fn every_single_bit_flip_of_every_byte_is_detected(
        payload in "[ -~]{0,120}",
        seq in 0i64..0x1_0000_0000,
    ) {
        let seq = seq as u64;
        let line = frame_line(seq, &payload);
        let body = &line[..line.len() - 1];
        for at in 0..body.len() {
            for bit in 0..8 {
                let mut flipped = body.as_bytes().to_vec();
                flipped[at] ^= 1 << bit;
                match String::from_utf8(flipped) {
                    // Invalid UTF-8 is caught one layer up, by the loader.
                    Err(_) => {}
                    Ok(s) => prop_assert!(
                        parse_frame(&s, seq).is_err(),
                        "flip of bit {bit} at byte {at} went undetected in {body:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn salvage_never_keeps_a_record_past_the_corruption_point(
        n in 1usize..16,
        frac in 0.0f64..1.0,
        bit in 0i64..8,
        g0 in -10.0f64..10.0,
        g1 in 0.1f64..5.0,
        minutes in 1.0f64..100.0,
    ) {
        let path = scratch("salvage-prop.jsonl");
        let quarantine = PathBuf::from(format!("{}.quarantine", path.display()));
        let _ = std::fs::remove_file(&quarantine);
        let clean = synthetic_journal(&path, n, g0, g1, minutes);
        let offset = ((frac * clean.len() as f64) as usize).min(clean.len() - 1);
        let mut damaged = clean.clone();
        damaged[offset] ^= 1 << bit;
        std::fs::write(&path, &damaged).unwrap();

        let report = salvage(&path).expect("salvage");
        let salvaged = std::fs::read(&path).unwrap();
        prop_assert_eq!(
            salvaged.as_slice(),
            &clean[..report.valid_len as usize],
            "salvaged file must be a clean prefix"
        );
        prop_assert!(
            (report.valid_len as usize) <= offset,
            "salvage kept bytes past the flip at {offset} (valid_len={})",
            report.valid_len
        );
        prop_assert_eq!(
            report.quarantined_bytes as usize,
            damaged.len() - report.valid_len as usize
        );
        let check = verify(&path).expect("verify");
        prop_assert!(!check.damaged(), "salvage must leave a clean journal behind");
        prop_assert_eq!(check.frames, report.frames_kept);
    }
}
