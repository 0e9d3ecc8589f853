//! The campaign driver's chaos: its own death and the I/O faults of its
//! file writers — the two failures the write-ahead journal exists for —
//! as deterministic, schedulable plans in the spirit of deterministic
//! simulation testing.
//!
//! Worker deaths are not here. Which attempt kills its simulated node is the
//! scheduler's decision ([`dphpo_hpc::FaultInjector`]); nothing in
//! `dphpo-hpc` knows that the driver can die or that a file can fail.
//!
//! * **A driver kill** has one spelling, [`Campaign::kill_after`]: the
//!   driver dies after `k` task completions, counted over the whole campaign
//!   by one driver life (a resume counts its own, replayed ones included).
//! * **An I/O fault** is a [`FaultPlan`] decision for the `occurrence`-th
//!   visit of a named site — a pure function of `(chaos_seed, site,
//!   occurrence)`, or a scripted `(site, occurrence)` — attached with
//!   [`Campaign::fault_plan`]. A fault at [`JOURNAL_APPEND_SITE`] kills the
//!   driver (one that cannot journal must stop, not keep computing state
//!   nothing can recover); one at [`STATUS_FSYNC_SITE`] or
//!   [`PROFILE_FSYNC_SITE`] skips that rewrite, and the next whole-file
//!   rewrite heals it.
//!
//! Two processes holding plans with the same seed make identical decisions
//! in any order, so a chaos run is reproducible from its plan; the
//! occurrence counters are per process, so a resume without a plan runs
//! clean.
//!
//! [`Campaign::kill_after`]: crate::experiment::Campaign::kill_after
//! [`Campaign::fault_plan`]: crate::experiment::Campaign::fault_plan

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use dphpo_obs::splitmix64;

use crate::experiment::ExperimentError;

/// An injectable I/O failure mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The write was cut short: a partial record reached the file (a torn
    /// frame), then the operation failed.
    ShortWrite,
    /// The operation failed outright; nothing reached the file.
    IoError,
    /// The filesystem is full; nothing reached the file.
    DiskFull,
    /// The data was written but the durability barrier (fsync) failed —
    /// the bytes may or may not survive a power loss.
    FsyncFail,
}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IoFault::ShortWrite => "short-write",
            IoFault::IoError => "io-error",
            IoFault::DiskFull => "disk-full",
            IoFault::FsyncFail => "fsync-fail",
        };
        write!(f, "{name}")
    }
}

/// Site name for write-ahead journal appends.
pub const JOURNAL_APPEND_SITE: &str = "journal.append";

/// Site name for the atomic `campaign_status.json` rewrite (its fsync +
/// rename barrier).
pub const STATUS_FSYNC_SITE: &str = "status.fsync";

/// Site name for the atomic rewrite of `profile.json` + `profile.folded`.
pub const PROFILE_FSYNC_SITE: &str = "profile.fsync";

/// A seeded, deterministic schedule of I/O faults across named sites.
///
/// Every decision is a pure function of `(chaos_seed, site, occurrence)`;
/// the plan holds no mutable state, so it can be consulted in any order.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    chaos_seed: u64,
    io_rate: f64,
    scripted: BTreeMap<(&'static str, u64), IoFault>,
}

impl FaultPlan {
    /// A plan seeded with `chaos_seed`: no faults until a rate or script is
    /// added.
    pub fn new(chaos_seed: u64) -> Self {
        FaultPlan { chaos_seed, ..FaultPlan::default() }
    }

    /// Inject a hashed I/O fault at each site occurrence with probability
    /// `rate` (`[0, 1)`).
    pub fn io_rate(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "io fault rate must be in [0, 1)");
        self.io_rate = rate;
        self
    }

    /// Script one exact fault: `fault` fires at the `occurrence`-th visit
    /// of `site` (overriding the hashed decision there).
    pub fn script(mut self, site: &'static str, occurrence: u64, fault: IoFault) -> Self {
        self.scripted.insert((site, occurrence), fault);
        self
    }

    /// The plan's decision for the `occurrence`-th visit of `site`.
    /// Scripted faults win; otherwise a hashed draw fires with probability
    /// `io_rate`, and the fault kind comes from independent bits of the same
    /// hash.
    pub(crate) fn decide(&self, site: &'static str, occurrence: u64) -> Option<IoFault> {
        if let Some(&fault) = self.scripted.get(&(site, occurrence)) {
            return Some(fault);
        }
        if self.io_rate <= 0.0 {
            return None;
        }
        let site_hash =
            site.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| splitmix64(h ^ b as u64));
        let z = splitmix64(splitmix64(self.chaos_seed ^ site_hash) ^ occurrence);
        if (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64) >= self.io_rate {
            return None;
        }
        Some(match z & 3 {
            0 => IoFault::ShortWrite,
            1 => IoFault::IoError,
            2 => IoFault::DiskFull,
            _ => IoFault::FsyncFail,
        })
    }
}

/// One writer's handle on the campaign's [`FaultPlan`]: counts its visits
/// and asks the plan about each. The counter is the only state — a site
/// that replays the same number of writes replays the same faults.
#[derive(Debug)]
pub(crate) struct IoSite {
    plan: Option<FaultPlan>,
    site: &'static str,
    occurrences: u64,
}

impl IoSite {
    /// The site `site` under `plan`; with no plan it never faults.
    pub(crate) fn new(plan: Option<&FaultPlan>, site: &'static str) -> Self {
        IoSite { plan: plan.cloned(), site, occurrences: 0 }
    }

    /// Consume the next occurrence and return the plan's decision for it.
    pub(crate) fn next(&mut self) -> Option<IoFault> {
        let occurrence = self.occurrences;
        self.occurrences += 1;
        self.plan.as_ref().and_then(|plan| plan.decide(self.site, occurrence))
    }
}

/// The simulated driver's life: it dies after `kill_after` task completions
/// ([`Campaign::kill_after`]; never, without a budget) or the moment a
/// journal append fails. One per campaign, shared by every run's driver on
/// the driver thread, so the budget spans runs by construction.
///
/// [`Campaign::kill_after`]: crate::experiment::Campaign::kill_after
pub(crate) struct DriverLife {
    kill_after: Option<u64>,
    /// Completions the driver lived to record.
    lived: Cell<u64>,
    dead: Cell<bool>,
}

impl DriverLife {
    /// A driver that dies after `kill_after` completions, if given.
    pub(crate) fn new(kill_after: Option<u64>) -> Self {
        DriverLife { kill_after, lived: Cell::new(0), dead: Cell::new(false) }
    }

    /// Whether the driver is still alive.
    pub(crate) fn alive(&self) -> bool {
        !self.dead.get() && self.kill_after.is_none_or(|k| self.lived.get() < k)
    }

    /// One task completion reaches the driver. True (and counted) if the
    /// driver was alive to record it; false if it is lost, as in a crash.
    pub(crate) fn complete(&self) -> bool {
        let alive = self.alive();
        self.lived.set(self.lived.get() + u64::from(alive));
        alive
    }

    /// A journal append failed: the driver dies now.
    pub(crate) fn die(&self) {
        self.dead.set(true);
    }

    /// The error a dead driver's campaign ends with.
    pub(crate) fn interrupted(&self) -> ExperimentError {
        ExperimentError::Interrupted { completed_tasks: self.lived.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_site_and_occurrence() {
        let a = FaultPlan::new(99).io_rate(0.3);
        let b = FaultPlan::new(99).io_rate(0.3);
        for occurrence in 0..500 {
            for site in [JOURNAL_APPEND_SITE, STATUS_FSYNC_SITE] {
                assert_eq!(a.decide(site, occurrence), b.decide(site, occurrence));
                // Consulting in a different order changes nothing.
                assert_eq!(a.decide(site, occurrence), a.decide(site, occurrence));
            }
        }
        // Sites are independent domains: the same occurrence index draws
        // differently somewhere across 500 tries.
        assert!((0..500).any(|i| {
            a.decide(JOURNAL_APPEND_SITE, i) != a.decide(STATUS_FSYNC_SITE, i)
        }));
        // And a different seed reshuffles the schedule.
        let c = FaultPlan::new(100).io_rate(0.3);
        assert!((0..500)
            .any(|i| a.decide(JOURNAL_APPEND_SITE, i) != c.decide(JOURNAL_APPEND_SITE, i)));
    }

    #[test]
    fn hashed_rate_produces_every_fault_kind_at_roughly_the_rate() {
        let plan = FaultPlan::new(7).io_rate(0.25);
        let mut kinds = std::collections::BTreeSet::new();
        let mut fired = 0usize;
        for occurrence in 0..4000 {
            if let Some(fault) = plan.decide(JOURNAL_APPEND_SITE, occurrence) {
                fired += 1;
                kinds.insert(format!("{fault}"));
            }
        }
        assert_eq!(kinds.len(), 4, "all four fault kinds should appear: {kinds:?}");
        let rate = fired as f64 / 4000.0;
        assert!((0.15..0.35).contains(&rate), "observed rate {rate} far from 0.25");
    }

    #[test]
    fn scripted_faults_override_the_hash_exactly_once() {
        let plan = FaultPlan::new(1).script(STATUS_FSYNC_SITE, 3, IoFault::FsyncFail);
        assert_eq!(plan.decide(STATUS_FSYNC_SITE, 3), Some(IoFault::FsyncFail));
        for occurrence in (0..10).filter(|&o| o != 3) {
            assert_eq!(plan.decide(STATUS_FSYNC_SITE, occurrence), None);
        }
        assert_eq!(plan.decide(JOURNAL_APPEND_SITE, 3), None);
    }

    #[test]
    fn io_site_counts_occurrences_and_without_a_plan_never_faults() {
        let plan = FaultPlan::new(5).script(JOURNAL_APPEND_SITE, 1, IoFault::IoError);
        let mut site = IoSite::new(Some(&plan), JOURNAL_APPEND_SITE);
        assert_eq!(site.next(), None);
        assert_eq!(site.next(), Some(IoFault::IoError));
        assert_eq!(site.next(), None);
        let mut off = IoSite::new(None, JOURNAL_APPEND_SITE);
        assert!((0..100).all(|_| off.next().is_none()));
    }

    #[test]
    fn a_driver_records_exactly_its_budget_then_loses_everything() {
        let life = DriverLife::new(Some(3));
        let recorded: Vec<bool> = (0..5).map(|_| life.complete()).collect();
        assert_eq!(recorded, [true, true, true, false, false]);
        assert!(!life.alive());
        assert!(matches!(life.interrupted(), ExperimentError::Interrupted { completed_tasks: 3 }));
        // Without a budget only a failed write kills it, and nothing after.
        let life = DriverLife::new(None);
        assert!((0..100).all(|_| life.complete()));
        life.die();
        assert!(!life.alive() && !life.complete());
        assert!(matches!(
            life.interrupted(),
            ExperimentError::Interrupted { completed_tasks: 100 }
        ));
        // A zero budget records nothing.
        assert!(!DriverLife::new(Some(0)).complete());
    }
}
