//! The architecture rules, as tier-1 tests read straight from the source
//! tree (std only, walked from `CARGO_MANIFEST_DIR`).
//!
//! * **The census** ([`census_matches_budget`]): `unsafe (\{|fn|impl)`
//!   sites, `SeqCst` uses and counted lines per workspace crate outside
//!   `crates/shims/`, split into non-test and test code. The `unsafe` and
//!   `SeqCst` counts must equal their row in [`BUDGET`] exactly: a change
//!   that lowers a count lowers its row, and one that raises a count edits
//!   its row where review sees it. `cargo test --test architecture census
//!   -- --nocapture` prints the table.
//! * **The structural guards**: one test per decision that must stay
//!   written once. Each keeps the textual pattern that defines its rule and
//!   names the rule when it fails.
//!
//! Non-test code is the part of a file before its first `#[cfg(test)]`, so
//! test-only items go at the end of a file. Everything under `tests/`, and
//! every out-of-line `tests.rs` module, is test code. Only code counts: a
//! line's text from its first `//` on is a comment.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `[non-test, test]`.
type Split = [usize; 2];

/// The census budget, one row per crate (`.` is the root package's `src`,
/// `tests` and `examples`): `[non-test, test]` `unsafe (\{|fn|impl)` sites,
/// then `[non-test, test]` `SeqCst` uses.
const BUDGET: &[(&str, Split, Split)] = &[
    (".", [0, 5], [0, 12]),
    ("crates/bench", [0, 0], [0, 0]),
    ("crates/bots", [0, 0], [0, 0]),
    ("crates/core", [50, 30], [0, 9]),
    ("crates/posp", [0, 0], [0, 0]),
    ("crates/profiling", [1, 0], [0, 0]),
    ("crates/service", [23, 1], [52, 6]),
    ("crates/topology", [0, 0], [0, 0]),
    ("crates/xqueue", [34, 25], [25, 11]),
];

/// One crate's census.
#[derive(Default)]
struct Census {
    unsafe_sites: Split,
    seq_cst: Split,
    lines: Split,
}

fn census(krate: &str) -> Census {
    let root = Path::new(ROOT);
    let dirs = match krate {
        "." => vec![root.join("src"), root.join("tests"), root.join("examples")],
        _ => vec![root.join(krate)],
    };
    let mut c = Census::default();
    for file in dirs.iter().flat_map(|d| files(d, "rs")) {
        // This file spells out the patterns it counts.
        if file.ends_with(file!()) {
            continue;
        }
        let rel = file.strip_prefix(root.join(krate)).unwrap();
        let mut test = rel.starts_with("tests") || rel.file_name().is_some_and(|n| n == "tests.rs");
        for line in fs::read_to_string(&file).unwrap().lines() {
            test |= line.contains("#[cfg(test)]");
            let code = code(line);
            let t = test as usize;
            c.unsafe_sites[t] += code
                .match_indices("unsafe ")
                .filter(|&(i, m)| {
                    let rest = &code[i + m.len()..];
                    ["{", "fn", "impl"].iter().any(|k| rest.starts_with(k))
                })
                .count();
            c.seq_cst[t] += code.matches("SeqCst").count();
            c.lines[t] += !code.trim().is_empty() as usize;
        }
    }
    c
}

/// A line without its comment.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap()
}

/// Every `.{ext}` file under `path` (itself, if it is a file), sorted;
/// `target` and hidden directories are skipped.
fn files(path: &Path, ext: &str) -> Vec<PathBuf> {
    let meta = fs::metadata(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if meta.is_file() {
        return vec![path.to_path_buf()];
    }
    let mut found = Vec::new();
    for entry in fs::read_dir(path).unwrap() {
        let p = entry.unwrap().path();
        let name = p.file_name().unwrap().to_string_lossy();
        if p.is_dir() && name != "target" && !name.starts_with('.') {
            found.extend(files(&p, ext));
        } else if p.extension().is_some_and(|e| e == ext) {
            found.push(p);
        }
    }
    found.sort();
    found
}

/// Which lines of a file [`grep`] reads.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    All,
    NonTest,
}

/// `path:line: text` for every line under `path` (a file, or a directory
/// walked recursively, relative to the root) that `hit` accepts.
fn grep(path: &str, part: Part, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for file in files(&Path::new(ROOT).join(path), "rs") {
        let rel = file.strip_prefix(ROOT).unwrap().display().to_string();
        let text = fs::read_to_string(&file).unwrap();
        for (n, line) in text.lines().enumerate() {
            if part == Part::NonTest && line.contains("#[cfg(test)]") {
                break;
            }
            if hit(line) {
                found.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    found
}

/// Whether `line` contains `word` not followed by an identifier char.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(i, _)| {
        !line[i + word.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

/// A named architecture rule; each failure message leads with its name.
struct Rule(&'static str);

impl Rule {
    #[track_caller]
    fn check(&self, ok: bool, what: &str, found: &[String]) {
        let found = found.join("\n");
        assert!(
            ok,
            "architecture rule `{}` violated: {what}\n{found}",
            self.0
        );
    }

    /// `found` holds exactly `n` lines.
    #[track_caller]
    fn count(&self, n: usize, what: &str, found: Vec<String>) {
        self.check(found.len() == n, what, &found);
    }
}

const CORE: &str = "crates/core/src";
const SERVICE: &str = "crates/service/src";

fn budget_row(krate: &str) -> (Split, Split) {
    let &(_, unsafe_sites, seq_cst) = BUDGET.iter().find(|r| r.0 == krate).unwrap();
    (unsafe_sites, seq_cst)
}

/// The census of every crate outside the shims equals [`BUDGET`], row for
/// row. Run with `-- --nocapture` to print the table.
#[test]
fn census_matches_budget() {
    let r = Rule("census_matches_budget");
    let mut crates = vec![".".to_string()];
    for entry in fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        if dir.join("Cargo.toml").is_file() {
            crates.push(dir.strip_prefix(ROOT).unwrap().display().to_string());
        }
    }
    crates.sort();
    let rows: Vec<&str> = BUDGET.iter().map(|r| r.0).collect();
    r.check(
        crates == rows,
        &format!("budget rows {rows:?}, crates {crates:?}"),
        &[],
    );

    let pair = |s: Split| format!("{} / {}", s[0], s[1]);
    let print = |name: &str, c: &Census| {
        let (u, s, l) = (pair(c.unsafe_sites), pair(c.seq_cst), pair(c.lines));
        println!("| {name} | {u} | {s} | {l} |");
    };
    println!("| crate | `unsafe` (non-test / test) | `SeqCst` (non-test / test) | lines (non-test / test) |");
    println!("|---|---:|---:|---:|");
    let mut total = Census::default();
    let mut moved = Vec::new();
    for krate in &crates {
        let c = census(krate);
        print(krate, &c);
        let budget = budget_row(krate);
        if (c.unsafe_sites, c.seq_cst) != budget {
            moved.push(format!(
                "{krate}: counted unsafe {:?} SeqCst {:?}, budget row has {:?} {:?}",
                c.unsafe_sites, c.seq_cst, budget.0, budget.1
            ));
        }
        for t in 0..2 {
            total.unsafe_sites[t] += c.unsafe_sites[t];
            total.seq_cst[t] += c.seq_cst[t];
            total.lines[t] += c.lines[t];
        }
    }
    print("total", &total);
    let what = "a count moved: lower its row if it fell, justify raising it if it grew";
    r.check(moved.is_empty(), what, &moved);
}

/// One team engine: every region runs on the start-gate workers a
/// `Runtime` owns. A second lifecycle (scoped per-region threads, or
/// another spawn site for worker stacks) must not grow back beside it.
#[test]
fn one_region_lifecycle() {
    let r = Rule("one_region_lifecycle");
    let scoped = grep(CORE, Part::All, |l| l.contains("spawn_scoped"));
    r.count(0, "no scoped per-region threads", scoped);
    let spawns = grep(CORE, Part::All, |l| {
        l.contains("WORKER_STACK_BYTES") && !l.contains("const WORKER_STACK_BYTES")
    });
    r.count(1, "one worker-spawn site uses `WORKER_STACK_BYTES`", spawns);
}

/// One scheduling point, one spawn hook: a task goes from a queue to a
/// running body in `Worker::run_next` and nowhere else (a second
/// `next_task` call site is a hand-written pop -> victim hook -> execute
/// growing back), the `Seat` trait has one `spawn` and no separate victim
/// hook, the task layer carries no dead-code allowances, and a body's type
/// (the scoped spawn's lifetime included) is erased at one site: where
/// `Task::set_body` installs the body's thunk. A worker's private stack of
/// nested work has one entry point too: `XqSeat::spawn` is the only
/// non-test `.push_nested(` call site.
#[test]
fn one_scheduling_point() {
    let r = Rule("one_scheduling_point");
    let mut pops = grep(CORE, Part::All, |l| l.contains("seat.next_task("));
    pops.retain(|h| !h.starts_with("crates/core/src/sched/"));
    r.count(1, "one `seat.next_task(` call outside `sched/`", pops);
    let hooks = grep(CORE, Part::All, |l| {
        has_word(l, "fn spawn_to") || has_word(l, "fn pre_execute")
    });
    r.count(0, "no `spawn_to` or `pre_execute` hook", hooks);
    let allowances = ["alloc.rs", "util.rs", "sched"]
        .iter()
        .flat_map(|p| {
            grep(&format!("{CORE}/{p}"), Part::All, |l| {
                l.contains("allow(dead_code)")
            })
        })
        .collect();
    r.count(0, "no dead-code allowances in the task layer", allowances);
    let erasures = grep(CORE, Part::NonTest, |l| {
        let code = code(l);
        code.contains("thunk::<") || code.contains("mem::transmute")
    });
    r.count(1, "one site erases a body's type", erasures);
    let xq = "crates/core/src/sched/xq.rs";
    let nested = grep(xq, Part::NonTest, |l| l.contains(".push_nested("));
    r.count(1, "one non-test `.push_nested(` call site", nested);
}

/// One allocation per task: the body lives inline in the `Task` record, so
/// the spawn path boxes nothing, and the one non-test `Box::new(` in
/// `task.rs` is the body's fallback for a capture too large or too aligned
/// for the inline storage.
#[test]
fn one_allocation_per_task() {
    let r = Rule("one_allocation_per_task");
    let boxes = |path| grep(path, Part::NonTest, |l| code(l).contains("Box::new("));
    let ctx = boxes("crates/core/src/ctx.rs");
    r.count(0, "no `Box::new(` in the spawn path (`ctx.rs`)", ctx);
    let task = boxes("crates/core/src/task.rs");
    r.count(
        1,
        "one `Box::new(` in `task.rs`: the oversized-body fallback",
        task,
    );
}

/// Worker state is owned: everything only one worker writes lives by value
/// in the `Worker` its thread claimed (scheduler seat, allocator seat,
/// log), so no shared `PerWorker` array, no "this thread owns slot w"
/// SAFETY sentence and no hand-written Send/Sync on the allocator may grow
/// back, and `crates/core`'s non-test `unsafe` sites stay at their budget
/// row: the next "trust me" site fails here instead of joining a census.
#[test]
fn worker_state_is_owned() {
    let r = Rule("worker_state_is_owned");
    r.count(
        0,
        "no `PerWorker` array",
        grep(CORE, Part::All, |l| l.contains("PerWorker")),
    );
    let promises = grep(CORE, Part::All, |l| {
        let l = l.to_lowercase();
        [
            "worker-ownership contract",
            "own worker slot",
            "owns worker slot",
        ]
        .iter()
        .any(|p| l.contains(p))
    });
    r.count(0, "no worker-slot ownership promise", promises);
    let impls = grep(CORE, Part::All, |l| {
        l.contains("unsafe impl Send for TaskAllocator")
            || l.contains("unsafe impl Sync for TaskAllocator")
    });
    r.count(0, "no hand-written Send/Sync on `TaskAllocator`", impls);
    let counted = census("crates/core").unsafe_sites[0];
    let budget = budget_row("crates/core").0[0];
    let what =
        format!("crates/core has {counted} non-test `unsafe` sites, its budget row {budget}");
    r.check(counted == budget, &what, &[]);
}

/// One chunk-boundary clock, one dispense site: the pooled drain loop
/// reads the clock at its window boundary and nowhere else (a second site
/// is a per-chunk `t0`/`t1` pair growing back), and stolen ranges are
/// dispensed by the same code as local reserves (no inner loop of their
/// own).
#[test]
fn one_chunk_boundary_clock() {
    let r = Rule("one_chunk_boundary_clock");
    let drain = "crates/core/src/loops/drain.rs";
    let clocks = grep(drain, Part::All, |l| l.contains("clock::now()"));
    r.count(1, "one `clock::now()` read, at the window boundary", clocks);
    let loops = grep(drain, Part::All, |l| l.contains("while lo < hi"));
    r.count(0, "no dispense loop of its own for stolen ranges", loops);
}

/// One job ledger: `in_flight` is the serving layer's only count of
/// unfinished jobs (the pause drain exits on `spill.len() == in_flight`),
/// and the ingress probes read the lane counters. A second job counter or
/// a slot-scanning probe must not grow back. Completion stays syscall-free
/// without a parked joiner: the one condvar broadcast in `handle.rs` is the
/// waiter-gated one in `JobState::complete`, and the ingress drain hands
/// out one job with no batch buffer.
#[test]
fn one_job_ledger() {
    let r = Rule("one_job_ledger");
    let counters = grep(SERVICE, Part::All, |l| {
        l.contains("ring_producers") || l.contains("in_team")
    });
    r.count(0, "no second job counter", counters);
    let scans = grep(SERVICE, Part::All, |l| l.contains("occupancy_scan"));
    r.count(0, "no slot-scanning ingress probe", scans);
    let handle = "crates/service/src/handle.rs";
    let wakes = grep(handle, Part::All, |l| l.contains("notify_all"));
    r.count(1, "one `notify_all` in `handle.rs`", wakes);
    let wakes = grep(handle, Part::NonTest, |l| l.contains("notify_all"));
    r.count(1, "the `notify_all` in `handle.rs` is non-test code", wakes);
    let ingress = "crates/service/src/ingress.rs";
    let batches = grep(ingress, Part::NonTest, |l| l.contains("Vec<JobRef>"));
    r.count(0, "no `Vec<JobRef>` batch in the ingress drain", batches);
}

/// One record per job: a served job's closure, handle state and result
/// slot share one allocation, which crosses the ingress as a one-word
/// `JobRef`. The submit path boxes nothing — no non-test `Box::new(` or
/// `Box::leak` in `server/submitter.rs` or `server/placement.rs` — the
/// deadline set holds job references instead of boxed `Fire` closures,
/// and one non-test site erases a job record's types: the `thunk::<` that
/// `JobHandle::new` installs.
#[test]
fn one_record_per_job() {
    let r = Rule("one_record_per_job");
    let boxes = ["submitter.rs", "placement.rs"]
        .iter()
        .flat_map(|f| {
            grep(&format!("{SERVICE}/server/{f}"), Part::NonTest, |l| {
                let code = code(l);
                code.contains("Box::new(") || code.contains("Box::leak")
            })
        })
        .collect();
    let what = "no `Box::new(` or `Box::leak` in `server/submitter.rs` or `server/placement.rs`";
    r.count(0, what, boxes);
    let fire = grep(SERVICE, Part::All, |l| code(l).contains("type Fire"));
    r.count(0, "no `Fire` alias", fire);
    let erasures = grep(SERVICE, Part::NonTest, |l| {
        let code = code(l);
        code.contains("thunk::<") || code.contains("mem::transmute")
    });
    r.count(1, "one site erases a job record's types", erasures);
}

/// One level of loop balancing: a zone's pool is its one `PaneSet`, and
/// units leave their zone only by a drain task's steal-split, so every
/// unit is always in a pool or in one drain task's reserve and the drain
/// exit is a plain all-pools-empty scan. A second pool per zone (an
/// inbox), a migration seqlock guarding a range held outside both, and a
/// per-claim counter on the range pool (whose only reader was a
/// migration policy) must not grow back. `auto.rs` is exempt from the
/// `epoch` check: its tuning-swap epoch is the `Auto` selector's.
#[test]
fn one_loop_balancing_level() {
    let r = Rule("one_loop_balancing_level");
    let loops = "crates/core/src/loops";
    let inboxes = grep(loops, Part::All, |l| l.contains("inbox"));
    r.count(0, "no `inbox` under `crates/core/src/loops/`", inboxes);
    let mut seqlocks = grep(loops, Part::All, |l| {
        l.contains("epoch") || l.contains("migrating(")
    });
    seqlocks.retain(|h| !h.starts_with("crates/core/src/loops/auto.rs:"));
    let what = "no `epoch` or `migrating(` under `crates/core/src/loops/`";
    r.count(0, what, seqlocks);
    let rangepool = "crates/xqueue/src/rangepool.rs";
    let counters = grep(rangepool, Part::NonTest, |l| code(l).contains("fetch_add"));
    r.count(0, "no non-test `fetch_add` in `rangepool.rs`", counters);
}

/// One join wait: a joiner sleeps on a job's condvar only after it counts
/// itself in `waiters`, and the one non-test registration in `handle.rs`
/// is the one in `JobHandle::wait_until`, after the spin gate. A second
/// registering join flavor would sleep without passing the gate.
#[test]
fn one_join_wait() {
    let r = Rule("one_join_wait");
    let handle = "crates/service/src/handle.rs";
    let registrations = grep(handle, Part::NonTest, |l| {
        code(l).contains("waiters.fetch_add")
    });
    r.count(
        1,
        "one non-test `waiters.fetch_add` in `handle.rs`",
        registrations.clone(),
    );
    let text = fs::read_to_string(Path::new(ROOT).join(handle)).unwrap();
    let lines: Vec<&str> = text.lines().map(code).collect();
    let find = |from: usize, pat: &str| {
        let i = lines[from..].iter().position(|l| l.contains(pat))?;
        Some(from + i)
    };
    let gated = || {
        let wait = find(0, "fn wait_until(")?;
        let spin = find(wait, "self.spin_while_young(")?;
        let registration = find(spin, "waiters.fetch_add")?;
        Some(registration < find(wait + 1, "fn ").unwrap_or(lines.len()))
    };
    let what = "the registration sits in `wait_until`, after the spin gate";
    r.check(gated() == Some(true), what, &registrations);
}

/// One per-worker cell primitive: every single-writer per-worker block
/// (§V counters, trace rings, job outcomes) is a seat of
/// `xgomp_xqueue::Cells`, padded by the workspace's one `CachePadded`. A
/// second padding type, outcome shards indexed `worker % OUTCOME_SHARDS`
/// (which two workers could share) and mutex-guarded lane or ring lists
/// must not grow back beside it.
#[test]
fn one_per_worker_cell() {
    let r = Rule("one_per_worker_cell");
    let mut pads = grep("crates", Part::All, |l| l.contains("#[repr(align("));
    pads.extend(grep("src", Part::All, |l| l.contains("#[repr(align(")));
    pads.retain(|h| !h.starts_with("crates/xqueue/src/"));
    r.count(0, "no `#[repr(align(` outside `crates/xqueue/src`", pads);
    let shards = grep("crates", Part::All, |l| l.contains("OUTCOME_SHARDS"));
    r.count(0, "no `OUTCOME_SHARDS`", shards);
    let lists = grep("crates", Part::All, |l| {
        l.contains("Mutex<Vec<Arc<TaskLane>>>") || l.contains("Mutex<Vec<Arc<EventRing>>>")
    });
    r.count(0, "no mutex-guarded lane or ring list", lists);
}

/// One DLB tuning source: a team's DLB configuration is fixed for its
/// life, and a server changes it only at a generation boundary — in
/// `apply_config` (`server/lifecycle.rs`), the one writer of the server's
/// `active_dlb` and `retunes` besides the seed in `TaskServer::start` —
/// so `retunes` counts `resume_with` swaps and nothing else. Neither the
/// mid-run tuning cell and its operator swap nor the online Table-IV
/// controller and the live task sampler it read may grow back.
#[test]
fn one_dlb_tuning_source() {
    let r = Rule("one_dlb_tuning_source");
    // `path: fn` of every non-test line that names the server's
    // `active_dlb` field (a call of the `active_dlb()` reader aside) or
    // bumps `retunes`, with a method chain split over lines
    // (`shared\n.active_dlb\n.lock()`) read as one line.
    let touches = |l: &str| {
        let field = l.match_indices("active_dlb").any(|(i, _)| {
            let rest = &l[i + "active_dlb".len()..];
            (l[..i].ends_with('.') && !rest.starts_with('(')) || rest.starts_with(": Mutex::new(")
        });
        field || l.contains("retunes.fetch_add(")
    };
    let mut writers = Vec::new();
    for file in files(&Path::new(ROOT).join(SERVICE), "rs") {
        let rel = file.strip_prefix(ROOT).unwrap().display().to_string();
        if rel.ends_with("/tests.rs") {
            continue;
        }
        let text = fs::read_to_string(&file).unwrap();
        let (mut owner, mut logical) = (String::new(), String::new());
        let non_test = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for line in non_test.chain([""]) {
            let line = code(line).trim();
            if !line.starts_with('.') {
                if touches(&logical) {
                    writers.push(format!("{rel}: {owner}"));
                }
                logical.clear();
            }
            logical.push_str(line);
            if let Some((_, rest)) = line.split_once("fn ") {
                owner = rest.split(['(', '<']).next().unwrap().to_string();
            }
        }
    }
    writers.sort();
    writers.dedup();
    let expected = [
        format!("{SERVICE}/server.rs: start"),
        format!("{SERVICE}/server/lifecycle.rs: apply_config"),
        format!("{SERVICE}/server/stats.rs: active_dlb"),
    ];
    let what = "the server's DLB is seeded in `start`, written only in `apply_config` \
                and read through `active_dlb`";
    r.check(writers == expected, what, &writers);
    let tables = grep(SERVICE, Part::NonTest, |l| {
        code(l).contains("recommend_dlb")
    });
    r.count(0, "the server applies no Table-IV pick of its own", tables);
    let hooks = fs::read_to_string(Path::new(ROOT).join(CORE).join("team/mod.rs")).unwrap();
    let hooks = hooks
        .split("pub struct ServingHooks {")
        .nth(1)
        .expect("`ServingHooks` in team/mod.rs");
    let hooks = hooks.split("\n}").next().unwrap();
    let fields: Vec<String> = hooks
        .lines()
        .filter(|l| code(l).contains("tuning"))
        .map(String::from)
        .collect();
    r.count(0, "no `tuning` field in `ServingHooks`", fields);
    let mut gone = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        gone.extend(grep(dir, Part::All, |l| {
            [
                "AdaptiveController",
                "LiveTaskSampler",
                "adapt_every",
                "DlbTuning",
                "swap_tuning",
            ]
            .iter()
            .any(|w| l.contains(w))
        }));
    }
    gone.retain(|h| !h.starts_with("tests/architecture.rs:"));
    let what = "no `DlbTuning`, `swap_tuning`, `AdaptiveController`, `LiveTaskSampler` \
                or `adapt_every`";
    r.count(0, what, gone);
}

/// One measurement harness: a speed claim is a number in the battery's
/// `BENCH_*.json` or a column of the figure harness (`repro_all`). No
/// manifest declares a `[[bench]]` target or a `criterion` dependency, no
/// package holds a `benches/` directory (cargo would build its files as
/// benches unasked), and the criterion shim crate does not come back.
#[test]
fn one_measurement_harness() {
    let r = Rule("one_measurement_harness");
    let root = Path::new(ROOT);
    let mut found = Vec::new();
    let manifests = files(root, "toml")
        .into_iter()
        .filter(|p| p.ends_with("Cargo.toml"));
    for manifest in manifests {
        let rel = manifest.strip_prefix(root).unwrap().display().to_string();
        for (n, line) in fs::read_to_string(&manifest).unwrap().lines().enumerate() {
            let toml = line.split('#').next().unwrap();
            if toml.contains("[[bench]]") || toml.contains("criterion") {
                found.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
        if manifest.with_file_name("benches").exists() {
            found.push(format!("{rel}: its package has a `benches/` directory"));
        }
    }
    let what = "no `[[bench]]` target, `criterion` dependency or `benches/` directory";
    r.count(0, what, found);
    let shim = root.join("crates/shims/criterion");
    r.check(!shim.exists(), "no `crates/shims/criterion` crate", &[]);
}

/// The reproducers CI repeats by name (the pause ledger's), and the
/// help-first join reproducer the docs cite: a rename would leave a repeat
/// loop running nothing.
#[test]
fn pinned_reproducers_exist() {
    let r = Rule("pinned_reproducers_exist");
    let server_tests = "crates/service/src/server/tests.rs";
    for (file, name) in [
        (
            "tests/service_semantics.rs",
            "bounded_join_never_nests_the_awaited_job",
        ),
        ("tests/generations.rs", "pause_resume_stress_conserves_jobs"),
        (server_tests, "paused_at_capacity_bounces_with_paused_error"),
        (
            server_tests,
            "pause_waits_for_an_admitted_job_still_being_placed",
        ),
    ] {
        let defs = grep(file, Part::All, |l| l.contains(&format!("fn {name}(")));
        r.count(1, &format!("`{name}` is defined in `{file}`"), defs);
    }
}
