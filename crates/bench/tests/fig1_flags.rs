//! Command-line tests for the artifact binaries: `fig1 --list-flags` is
//! the contract `scripts/verify.sh` holds the docs to, so the registry must
//! stay exact; an unknown flag (the five `--observe` replaced included), a
//! path flag without its path, a repeated flag, or a flag next to one that
//! would ignore it must be rejected loudly (exit 2 with the known-flag list)
//! instead of panicking or silently running a full campaign;
//! `--observe <dir>` only ever adds to what a campaign always writes; an
//! unwritable artifact is exit 1, not silence; and the binaries
//! that read the campaign back from its journal must refuse one they cannot
//! use — unfinished, corrupt, or written under another configuration —
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

/// Run `fig1 --smoke <args>` against `results_dir`; returns stderr.
fn fig1_in(results_dir: &Path, args: &[&str], exit_code: i32) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1"))
        .arg("--smoke")
        .args(args)
        .env("DPHPO_RESULTS_DIR", results_dir)
        .output()
        .expect("spawn fig1");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(exit_code), "fig1 --smoke {args:?}: {stderr}");
    stderr
}

#[test]
fn fig1_list_flags_is_exactly_the_registry() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), &["--list-flags"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let expected = "--smoke --steady-state --compare-modes --resume --observe --verify-journal \
                    --compact --list-flags";
    assert_eq!(stdout.lines().collect::<Vec<_>>(), expected.split(' ').collect::<Vec<_>>());
}

#[test]
fn fig1_rejects_unknown_flags_before_running_anything() {
    // The five flags `--observe` replaced are deleted, not aliased: they
    // take the unknown-flag path like any typo.
    for flag in ["--no-such-flag", "--trace", "--metrics", "--status", "--report", "--profile"] {
        let out = run(env!("CARGO_BIN_EXE_fig1"), &["--smoke", flag, "somewhere"]);
        assert_eq!(out.status.code(), Some(2), "{flag} must exit 2");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{stderr}");
        // The rejection message doubles as usage: every known flag is listed.
        assert!(stderr.contains("--observe <path>"), "usage must list --observe: {stderr}");
    }
}

#[test]
fn fig1_rejects_unknown_flags_even_next_to_known_ones() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), &["--smoke", "--obsreve", "dir"]);
    assert_eq!(out.status.code(), Some(2), "typo'd --observe must exit 2");
}

/// Flags that would silently ignore each other are refused before anything
/// is created: the maintenance and listing flags stand alone,
/// `--compare-modes` takes `--smoke` only, and no flag repeats.
#[test]
fn fig1_refuses_flags_that_would_be_ignored() {
    let dir = scratch_dir("conflicts");
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (journal, observed) = (at("experiment.journal.jsonl"), at("observed"));
    // (command line, the flag refused, the flag it cannot be combined with —
    // `None` when it is given twice)
    let table: [(Vec<&str>, &str, Option<&str>); 13] = [
        (vec!["--compare-modes", "--resume", &journal], "--compare-modes", Some("--resume")),
        (vec!["--compare-modes", "--observe", &observed], "--compare-modes", Some("--observe")),
        (vec!["--steady-state", "--compare-modes"], "--compare-modes", Some("--steady-state")),
        (vec!["--verify-journal", &journal, "--compact", &journal], "--verify-journal", Some("--compact")),
        (vec!["--compact", &journal, "--observe", &observed], "--compact", Some("--observe")),
        (vec!["--verify-journal", &journal, "--observe", &observed], "--verify-journal", Some("--observe")),
        (vec!["--smoke", "--verify-journal", &journal], "--verify-journal", Some("--smoke")),
        (vec!["--compact", &journal, "--steady-state"], "--compact", Some("--steady-state")),
        (vec!["--list-flags", "--smoke"], "--list-flags", Some("--smoke")),
        (vec!["--smoke", "--smoke"], "--smoke", None),
        (vec!["--smoke", "--compare-modes", "--compare-modes"], "--compare-modes", None),
        (vec!["--resume", &journal, "--resume", &journal], "--resume", None),
        (vec!["--smoke", "--observe", &observed, "--observe", &journal], "--observe", None),
    ];
    for (args, flag, other) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_fig1"))
            .args(&args)
            .env("DPHPO_RESULTS_DIR", &dir)
            .output()
            .expect("spawn fig1");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
        let problem = match other {
            Some(other) => format!("`{flag}` cannot be combined with `{other}`"),
            None => format!("`{flag}` given twice"),
        };
        assert!(stderr.contains(&problem), "{args:?}: {stderr}");
        assert!(stderr.contains("known flags:"), "{args:?}: usage must follow: {stderr}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(left.is_empty(), "{args:?} created {left:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    for flag in ["--resume", "--observe", "--verify-journal", "--compact"] {
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

/// `--observe <dir>` adds five files in `<dir>` and sections appended to
/// the campaign report, every other byte equal — in both campaign modes, and
/// again when resuming the finished journal (which trains nothing).
#[test]
fn observing_a_campaign_only_ever_adds_to_what_it_always_writes() {
    for (mode, prefix) in [(vec![], ""), (vec!["--steady-state"], "steady_")] {
        let plain = scratch_dir(&format!("observe-{prefix}off"));
        let seen = scratch_dir(&format!("observe-{prefix}on"));
        let observed = seen.join("observed");
        let read = |dir: &Path, name: &str| {
            std::fs::read_to_string(dir.join(format!("{prefix}{name}")))
                .unwrap_or_else(|e| panic!("{mode:?}: {prefix}{name} missing: {e}"))
        };

        fig1_in(&plain, &mode, 0);
        let mut args = mode.clone();
        args.extend(["--observe", observed.to_str().unwrap()]);
        fig1_in(&seen, &args, 0);

        let same = [
            "experiment.journal.jsonl",
            "fig1_levels.csv",
            "fig1_report.txt",
            "campaign_status.json",
            "campaign_counters.trace.json",
        ];
        for name in same {
            assert_eq!(read(&plain, name), read(&seen, name), "{mode:?}: {name} differs");
        }
        let (off, on) = (read(&plain, "campaign_report.md"), read(&seen, "campaign_report.md"));
        assert!(on.len() > off.len() && on.starts_with(&off), "{mode:?}: campaign_report.md");
        assert!(on[off.len()..].contains("here the microsecond goes"), "{mode:?}: campaign_report.md");
        for name in ["trace.json", "events.jsonl", "events.side.jsonl", "profile.json", "profile.folded"] {
            assert!(observed.join(name).metadata().is_ok_and(|m| m.len() > 0), "{mode:?}: {name}");
        }

        // Resuming the finished journal leaves the same bytes.
        let journal = seen.join(format!("{prefix}experiment.journal.jsonl"));
        let again = seen.join("observed-again");
        let mut args = mode.clone();
        args.extend(["--resume", journal.to_str().unwrap(), "--observe", again.to_str().unwrap()]);
        fig1_in(&seen, &args, 0);
        for name in same {
            assert_eq!(read(&plain, name), read(&seen, name), "{mode:?}: resumed {name}");
        }
        for name in ["profile.json", "profile.folded"] {
            assert_eq!(
                std::fs::read(observed.join(name)).unwrap(),
                std::fs::read(again.join(name)).unwrap(),
                "{mode:?}: resumed {name}"
            );
        }
        let _ = (std::fs::remove_dir_all(&plain), std::fs::remove_dir_all(&seen));
    }
}

#[test]
fn unwritable_outputs_are_exit_1_not_silence() {
    let dir = scratch_dir("unwritable");
    let blocker = dir.join("a-file");
    std::fs::write(&blocker, "not a directory").unwrap();

    // An `--observe` directory that cannot exist: refused before the journal
    // header is written.
    let stderr = fig1_in(&dir, &["--observe", blocker.join("obs").to_str().unwrap()], 1);
    assert!(stderr.contains("cannot create the --observe directory"), "{stderr}");
    assert!(!dir.join("experiment.journal.jsonl").exists(), "journal written before the refusal");

    // An artifact that cannot be written: the campaign and every other
    // artifact complete, then exit 1 naming the path.
    let levels = dir.join("fig1_levels.csv");
    std::fs::create_dir(&levels).unwrap();
    let stderr = fig1_in(&dir, &[], 1);
    assert!(stderr.contains(&format!("failed to write {}", levels.display())), "{stderr}");
    assert!(stderr.contains("not every artifact could be written"), "{stderr}");
    for name in ["experiment.journal.jsonl", "campaign_report.md", "fig1_report.txt"] {
        assert!(dir.join(name).is_file(), "{name} must still be written");
    }
    let _ = std::fs::remove_dir_all(&dir);
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

    // A finished journal of another campaign (here: another seed): its
    // fingerprint is not the selected scale's, and no figure is drawn from it.
    let other = ExperimentConfig { master_seed: config.master_seed + 1, ..config.clone() };
    Campaign::new(&other).journal(&journal).run(None).expect("smoke campaign");
    let stale = std::fs::read(&journal).unwrap();
    for bin in JOURNAL_READERS {
        let (code, _, stderr) = run_in(bin, &dir);
        assert_eq!(code, Some(1), "{bin}: {stderr}");
        assert!(stderr.contains("stale journal"), "{bin}: {stderr}");
        assert_eq!(std::fs::read(&journal).unwrap(), stale, "{bin} touched the journal");
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
