//! The task server as the loop and serve workloads use it: hermetic
//! start, lifetime bookkeeping, and the teardown that checks the
//! conservation identity and reads the serving layers' counters.

use xgomp_core::{clock, StatsSnapshot};
use xgomp_service::{ServerConfig, TaskServer};

use crate::common::server_config;
use crate::harness::{Ledger, Rep, Trace};
use crate::stats::ratio;

pub struct Served {
    pub server: TaskServer,
    /// Repetitions, their wall time and the jobs they submitted, over
    /// the server's whole life — what its cumulative counters cover.
    reps: f64,
    wall_s: f64,
    jobs: u64,
}

impl Served {
    pub fn start(workers: usize, tune: impl FnOnce(ServerConfig) -> ServerConfig) -> Self {
        Served {
            server: TaskServer::start(tune(server_config(workers))),
            reps: 0.0,
            wall_s: 0.0,
            jobs: 0,
        }
    }

    /// Books a finished repetition that submitted `jobs` jobs.
    pub fn note(&mut self, rep: &Rep, jobs: u64) {
        self.reps += 1.0;
        self.wall_s += clock::ticks_to_secs(rep.wall_ticks);
        self.jobs += jobs;
    }

    /// Shuts the server down and returns how many operations the final
    /// accounting shows lost: after the drain `completed + cancelled +
    /// shed` must equal `submitted` with nothing in flight.
    pub fn finish(self, trace: Option<(&mut Trace, &mut Ledger)>) -> u64 {
        let parks = self.server.park_events();
        let conflicts = self.server.ingress().claim_conflicts();
        let retunes = self.server.retunes();
        let report = self.server.shutdown();
        let s = &report.stats;
        let gap = s.submitted.abs_diff(s.completed + s.cancelled + s.shed);
        let lost = gap + s.in_flight as u64 + u64::from(report.region.is_none());

        if let Some((trace, ledger)) = trace {
            let mut team = StatsSnapshot::default();
            for region in report.prior_regions.iter().chain(&report.region) {
                team.add(&region.stats.total());
            }
            trace.add_team(&team, self.reps, self.wall_s);
            let jobs = self.jobs as f64;
            ledger.set_value("service.server.parks_per_job", ratio(parks as f64, jobs));
            ledger.set_value(
                "service.server.bounces_per_job",
                ratio(s.rejected as f64, jobs),
            );
            ledger.set_value("service.ingress.claim_conflicts", conflicts as f64);
            ledger.set_value("service.controller.retunes", retunes as f64);
            ledger.set_value("service.server.conservation_gap", lost as f64);
        }
        lost
    }
}
