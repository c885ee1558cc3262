//! The benchmark's own checks. Run with
//! `cargo test --release --manifest-path ldperf/Cargo.toml`.

use ldperf::near;
use ldperf::timed::{Layer, LayerClock, Untimed};
use ldperf::workloads::{self, Params, Workload, DEFAULT_SEED};

fn phase(o: &workloads::Outcome, name: &str) -> f64 {
    o.sim
        .phases
        .iter()
        .find(|p| p.0 == name)
        .unwrap_or_else(|| panic!("no phase {name}"))
        .1
}

/// The `"key": value` number in the first line of `json` that contains
/// every one of `anchors`.
fn committed(json: &str, anchors: &[&str], key: &str) -> String {
    let line = json
        .lines()
        .find(|l| anchors.iter().all(|a| l.contains(a)))
        .unwrap_or_else(|| panic!("no row with {anchors:?}"));
    let rest = &line[line.find(&format!("\"{key}\": ")).expect("key") + key.len() + 4..];
    rest.split([',', '}'])
        .next()
        .expect("value")
        .trim()
        .to_string()
}

fn baseline(file: &str) -> String {
    let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn default_seed_reproduces_table4_and_table5() {
    let t4 = baseline("BENCH_table4.json");
    let o = workloads::run(Workload::Smallfile, &Params::full(DEFAULT_SEED), Untimed).expect("run");
    assert!(o.tally.correct(), "{:?}", o.tally.problems);
    for key in ["create_per_s", "read_per_s", "delete_per_s"] {
        let want = committed(&t4, &["\"files\": 10000", "MINIX LLD"], key);
        assert_eq!(format!("{:.1}", phase(&o, key)), want, "{key}");
    }

    let t5 = baseline("BENCH_table5.json");
    let o = workloads::run(Workload::Largefile, &Params::full(DEFAULT_SEED), Untimed).expect("run");
    assert!(o.tally.correct(), "{:?}", o.tally.problems);
    for (key, col) in [
        ("write_seq_kb_s", "write_seq"),
        ("read_seq_kb_s", "read_seq"),
        ("write_rand_kb_s", "write_rand"),
        ("read_rand_kb_s", "read_rand"),
        ("reread_seq_kb_s", "reread_seq"),
    ] {
        let want = committed(&t5, &["MINIX LLD"], col);
        assert_eq!(format!("{:.1}", phase(&o, key)), want, "{key}");
    }
}

#[test]
fn cleaner_at_e17_size_reproduces_satf8() {
    let e17 = baseline("BENCH_e17.json");
    let p = Params {
        cleaner_writes: 20_000,
        ..Params::full(DEFAULT_SEED)
    };
    let row = ["\"scheduler\": \"satf\"", "\"depth\": 8"];
    // Traced too: a wrapper that lost the SATF hints would schedule FCFS.
    let plain = workloads::run(Workload::Cleaner, &p, Untimed).expect("run");
    let traced = workloads::run(Workload::Cleaner, &p, LayerClock::default()).expect("run");
    for o in [plain, traced] {
        assert!(o.tally.correct(), "{:?}", o.tally.problems);
        assert_eq!(
            format!("{:.1}", phase(&o, "overwrite_kb_s")),
            committed(&e17, &row, "kb_per_s")
        );
        assert_eq!(
            o.sim.counters.segments_cleaned.to_string(),
            committed(&e17, &row, "segments_cleaned")
        );
    }
}

#[test]
fn a_second_seed_reaches_the_generators_and_stays_correct() {
    let runs: Vec<_> = [DEFAULT_SEED, 7]
        .into_iter()
        .map(|seed| {
            Workload::ALL.map(|w| {
                let o = workloads::run(w, &Params::full(seed), Untimed).expect("run");
                assert!(
                    o.tally.correct(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    o.tally.problems
                );
                assert!(o.tally.attempted > 0);
                o
            })
        })
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    // Sequential phases do not depend on the seed; the random read does.
    // (LLD logs the random writes sequentially, so their rate does not
    // depend on the order either.)
    assert_eq!(
        phase(&a[1], "write_seq_kb_s"),
        phase(&b[1], "write_seq_kb_s")
    );
    assert_ne!(
        phase(&a[1], "read_rand_kb_s"),
        phase(&b[1], "read_rand_kb_s")
    );
    // Other overwrite draws clean other segments.
    assert_ne!(a[2].sim.counters, b[2].sim.counters);
    assert_ne!(
        workloads::overwrite_draws(DEFAULT_SEED, 1000, 100),
        workloads::overwrite_draws(7, 1000, 100)
    );
    assert_eq!(
        workloads::overwrite_draws(7, 1000, 100),
        workloads::overwrite_draws(7, 1000, 100)
    );
}

#[test]
fn tracing_changes_no_simulated_result_and_self_times_tile_the_total() {
    for w in [Workload::Smallfile, Workload::Largefile, Workload::Cleaner] {
        let p = Params::full(3);
        let plain = workloads::run(w, &p, Untimed).expect("run");
        let traced = workloads::run(w, &p, LayerClock::default()).expect("run");
        assert!(traced.tally.correct(), "{:?}", traced.tally.problems);
        if w.deterministic() {
            assert_eq!(plain.sim, traced.sim, "{}", w.name());
        } else {
            let (a, b) = (&plain.sim, &traced.sim);
            assert!(
                near(b.write_kb_s, a.write_kb_s),
                "{} vs {}",
                a.write_kb_s,
                b.write_kb_s
            );
            assert!(near(
                b.counters.segments_cleaned as f64,
                a.counters.segments_cleaned as f64
            ));
        }
        let t = traced.layers.expect("traced run records layers");
        let self_ns: u64 = Layer::ALL.iter().map(|&l| t.self_ns(l)).sum();
        assert!(self_ns as f64 / 1e9 <= traced.wall_s, "{}", w.name());
        assert!(t.calls(Layer::Lld) > 0 && t.calls(Layer::Simdisk) > 0);
        assert_eq!(t.calls(Layer::Minix) == 0, w == Workload::Cleaner);
        assert_eq!(
            traced.sim.counters.queue_dispatched == 0,
            w != Workload::Cleaner
        );
    }
}
