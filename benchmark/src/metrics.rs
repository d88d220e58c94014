//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and the per-layer ledger. `BENCHMARK.json`
//! is this file rendered (`--benchmark-json`); a unit test keeps the two
//! identical.

use serde_json::Value;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it got better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "task_fib",
        why: "finest-grain tasks (BOTS fib, no cutoff): task alloc, lattice push/pop and barrier accounting do all the work; DLB, parker, ingress and loops do none",
    },
    WorkloadDef {
        name: "task_skew",
        why: "1 us leaves with rare 3 ms outliers under NA-WS: the only workload where core::dlb can matter; static round-robin leaves visible headroom",
    },
    WorkloadDef {
        name: "loop_posp",
        why: "uniform ~150 ns PoSp hashes at Dynamic(1) over a u64 space beyond u32::MAX: one PaneSet claim per iteration, so the claim path is about half the time; balance does no work",
    },
    WorkloadDef {
        name: "loop_tri",
        why: "triangular rows (row i costs i+1 trips) under Guided(16): a few dozen chunks per loop, so claim cost is nil and balance is everything - the opposite use of the loop layer",
    },
    WorkloadDef {
        name: "serve_wake",
        why: "one client pinging an idle server after 50 us think time: doorbell, Parker wake, ingress drain, completion and condvar wake are the whole latency",
    },
    WorkloadDef {
        name: "serve_burst",
        why: "one client keeping 64 submits of 2 us jobs outstanding: workers never park, so admission, closure boxing, ingress push/drain and handle completion set jobs/s",
    },
];

pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const E2E: &[E2eDef] = &[
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "makespan_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    E2eDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    E2eDef {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "lat_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    E2eDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The layer ledger, in report order. Every traced run emits every name;
/// a layer the workload does not drive reads `0`. README.md says how each
/// is measured and which end-to-end metric it should move on which
/// workload.
pub const LAYERS: &[LayerDef] = &[
    // Micro legs: the layers' public functions timed directly.
    layer("xqueue.bqueue.handoff_ns", "ns", Lower),
    layer("xqueue.lattice.push_pop_ns", "ns", Lower),
    layer("xqueue.lattice.cross_ns", "ns", Lower),
    layer("xqueue.rangepool.claim_ns", "ns", Lower),
    layer("xqueue.rangepool.claim_2t_ns", "ns", Lower),
    layer("xqueue.panes.claim_ns", "ns", Lower),
    layer("xqueue.panes.steal_half_ns", "ns", Lower),
    layer("xqueue.parker.wake_us", "us", Lower),
    layer("xqueue.parker.notify_idle_ns", "ns", Lower),
    layer("xqueue.eventring.emit_ns", "ns", Lower),
    layer("core.team.region_empty_us", "us", Lower),
    layer("core.task.spawn_run_ns", "ns", Lower),
    layer("core.dlb.msg_roundtrip_ns", "ns", Lower),
    layer("core.loops.empty_loop_us", "us", Lower),
    layer("service.server.idle_cpu_ms_per_s", "ms/s", Lower),
    // Counters read at the workload's own boundaries.
    layer("core.task.ns_per_task", "ns", Lower),
    layer("core.task.imm_exec_ratio", "ratio", Lower),
    layer("core.task.self_ratio", "ratio", Higher),
    layer("core.dlb.requests", "count", Lower),
    layer("core.dlb.steal_success_ratio", "ratio", Higher),
    layer("core.dlb.tasks_per_steal", "count", Higher),
    layer("core.dlb.src_empty_ratio", "ratio", Lower),
    layer("core.dlb.work_imbalance", "ratio", Lower),
    layer("core.loops.pct_imbalance", "%", Lower),
    layer("core.loops.cov", "ratio", Lower),
    layer("core.loops.chunks", "count", Lower),
    layer("core.loops.claim_local_ratio", "ratio", Higher),
    layer("core.loops.range_steals", "count", Lower),
    layer("core.loops.claim_overhead_ns", "ns", Lower),
    // Differences between two configurations on the workload's input.
    layer("core.dlb.gain_vs_slb", "ratio", Higher),
    layer("core.dlb.narp_gain_vs_slb", "ratio", Higher),
    layer("core.loops.efficiency_b1", "ratio", Higher),
    layer("core.loops.efficiency_b4", "ratio", Higher),
    layer("core.loops.efficiency_b64", "ratio", Higher),
    layer("core.loops.gain_vs_static", "ratio", Higher),
    layer("core.loops.auto_vs_guided", "ratio", Lower),
    layer("profiling.trace.overhead_lifecycle", "ratio", Lower),
    layer("profiling.trace.overhead_full", "ratio", Lower),
    // Spans around the serving API and `JobReport` readings.
    layer("service.server.submit_call_ns", "ns", Lower),
    layer("service.server.lane_submit_call_ns", "ns", Lower),
    layer("service.ingress.queued_us_p50", "us", Lower),
    layer("service.ingress.queued_us_p99", "us", Lower),
    layer("service.server.run_us_p50", "us", Lower),
    layer("service.handle.join_wake_us_p50", "us", Lower),
    layer("service.handle.lat_reconstruct_ratio", "ratio", Higher),
    layer("service.server.parks_per_job", "count", Lower),
    layer("service.server.bounces_per_job", "count", Lower),
    layer("service.ingress.claim_conflicts", "count", Lower),
    layer("service.controller.retunes", "count", Lower),
    layer("service.server.conservation_gap", "count", Lower),
    // The benchmark's own overhead and verdict.
    layer("bench.span_overhead", "ratio", Lower),
    layer("bench.fail_ratio", "ratio", Lower),
];

#[cfg(test)]
pub fn e2e(name: &str) -> Option<&'static E2eDef> {
    E2E.iter().find(|m| m.name == name)
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn s(v: &str) -> Value {
    Value::Str(v.into())
}

/// `BENCHMARK.json` as a value.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::Map(vec![
        (
            "command".into(),
            Value::Seq(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Value::Seq(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| Value::Map(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Seq(
                E2E.iter()
                    .map(|m| {
                        Value::Map(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.name())),
                            ("bound".into(), Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Seq(
                LAYERS
                    .iter()
                    .map(|m| {
                        Value::Map(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(E2E.iter().map(|m| m.name))
            .chain(LAYERS.iter().map(|m| m.name))
        {
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in E2E
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|m| m.unit))
        {
            assert!(is_unit(unit), "bad unit {unit:?}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&E2E.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = e2e("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_on_disk_is_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(
            serde_json::to_string(&on_disk).unwrap(),
            serde_json::to_string(&benchmark_json()).unwrap(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(10.0, 9.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 9.0), 0.0);
    }
}
