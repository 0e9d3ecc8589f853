//! Command-line tests for the artifact binaries: `fig1 --list-flags` is
//! the contract `scripts/verify.sh` greps the docs against, so the
//! registry must stay complete; an unknown flag or a path flag without its
//! path must be rejected loudly (exit 2 with the known-flag list) instead
//! of panicking or silently running a full campaign; and the binaries that
//! read the campaign back from its journal must refuse one they cannot use
//! (exit 1, the journal error, the resume line) without touching it.

use std::path::{Path, PathBuf};
use std::process::Command;

use dphpo_core::experiment::{Campaign, ExperimentConfig};

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

/// Run a journal-reading figure binary against `results_dir`.
fn run_in(bin: &str, results_dir: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .arg("--smoke")
        .env("DPHPO_RESULTS_DIR", results_dir)
        .output()
        .expect("spawn binary");
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const JOURNAL_READERS: [&str; 3] = [
    env!("CARGO_BIN_EXE_fig2_table2"),
    env!("CARGO_BIN_EXE_fig3"),
    env!("CARGO_BIN_EXE_table3"),
];

#[test]
fn fig1_list_flags_includes_every_registered_flag() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), &["--list-flags"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout.lines().collect();
    for flag in [
        "--smoke",
        "--steady-state",
        "--compare-modes",
        "--resume",
        "--trace",
        "--metrics",
        "--status",
        "--report",
        "--profile",
        "--verify-journal",
        "--compact",
        "--list-flags",
    ] {
        assert!(listed.contains(&flag), "--list-flags is missing {flag}: {listed:?}");
    }
}

#[test]
fn fig1_rejects_unknown_flags_before_running_anything() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), &["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag `--no-such-flag`"), "{stderr}");
    // The rejection message doubles as usage: every known flag is listed,
    // including the profiler entry point.
    assert!(stderr.contains("--profile"), "usage must list --profile: {stderr}");
}

#[test]
fn fig1_rejects_unknown_flags_even_next_to_known_ones() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), &["--smoke", "--porfile", "dir"]);
    assert_eq!(out.status.code(), Some(2), "typo'd --profile must exit 2");
}

#[test]
fn perf_report_rejects_unknown_flags() {
    let out = run(env!("CARGO_BIN_EXE_perf_report"), &["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn fig1_path_flags_without_a_path_are_usage_errors() {
    for flag in ["--resume", "--trace", "--metrics", "--profile", "--verify-journal", "--compact"] {
        // At the end of the command line, and with another flag where the
        // path should be.
        for args in [vec!["--smoke", flag], vec![flag, "--smoke"]] {
            let out = run(env!("CARGO_BIN_EXE_fig1"), &args);
            assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(stderr.contains(&format!("`{flag}` requires a path argument")), "{stderr}");
            assert!(stderr.contains("known flags:"), "usage must follow: {stderr}");
        }
    }
}

#[test]
fn perf_report_history_without_a_path_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_perf_report"), &["--check", "--history"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("`--history` requires a path argument"), "{stderr}");
    assert!(stderr.contains("usage: perf_report"), "{stderr}");
}

#[test]
fn journal_readers_refuse_what_they_cannot_read_and_leave_it_alone() {
    let dir = scratch_dir("refuse");
    let journal = dir.join("experiment.journal.jsonl");
    let config = ExperimentConfig::smoke();

    // A results directory that does not exist and cannot be created: there
    // is nothing to read and nowhere to journal a fresh campaign.
    let blocker = dir.join("a-file");
    std::fs::write(&blocker, "not a directory").unwrap();
    for bin in JOURNAL_READERS {
        let (code, _, stderr) = run_in(bin, &blocker.join("results"));
        assert_eq!(code, Some(1), "{bin}: {stderr}");
        assert!(stderr.contains("journal error"), "{bin}: {stderr}");
    }

    // An unfinished journal: refused with the first missing boundary and the
    // resume line, never retrained over.
    let killed = Campaign::new(&config).journal(&journal).kill_after(6).run(None);
    assert!(killed.is_err(), "kill_after(6) of 16 tasks must interrupt");
    let unfinished = std::fs::read(&journal).unwrap();
    for bin in JOURNAL_READERS {
        let (code, _, stderr) = run_in(bin, &dir);
        assert_eq!(code, Some(1), "{bin}: {stderr}");
        assert!(stderr.contains("(run 0, generation 1)"), "{bin}: {stderr}");
        assert!(
            stderr.contains(&format!("fig1 --resume {}", journal.display())),
            "{bin}: {stderr}"
        );
        assert_eq!(std::fs::read(&journal).unwrap(), unfinished, "{bin} touched the journal");
    }

    // A corrupt journal: the frame scan's error, same exit, same hands-off.
    let mut corrupt = unfinished.clone();
    let middle = corrupt.len() / 2;
    corrupt[middle] ^= 0x01;
    std::fs::write(&journal, &corrupt).unwrap();
    for bin in JOURNAL_READERS {
        let (code, _, stderr) = run_in(bin, &dir);
        assert_eq!(code, Some(1), "{bin}: {stderr}");
        assert!(stderr.contains("corrupt record at byte"), "{bin}: {stderr}");
        assert_eq!(std::fs::read(&journal).unwrap(), corrupt, "{bin} touched the journal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_readers_load_a_finished_journal_without_training() {
    let dir = scratch_dir("load");
    let journal = dir.join("experiment.journal.jsonl");
    let config = ExperimentConfig::smoke();
    Campaign::new(&config).journal(&journal).run(None).expect("smoke campaign");
    let finished = std::fs::read(&journal).unwrap();
    for bin in JOURNAL_READERS {
        let (code, stdout, stderr) = run_in(bin, &dir);
        assert_eq!(code, Some(0), "{bin}: {stderr}");
        assert!(stdout.contains("loaded experiment from"), "{bin}: {stdout}");
        assert_eq!(std::fs::read(&journal).unwrap(), finished, "{bin} touched the journal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
