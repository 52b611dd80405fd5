//! Self-tests of the benchmark's own arithmetic and generators.

use std::time::{Duration, Instant};

use perfbench::gen::{schedule, synthetic, Class, SynthScale, LARGE_SHARE_OF_READS, UPDATE_SHARE};
use perfbench::loadgen::{backlog_growing, open_loop};
use perfbench::stats::{median, tail};
use perfbench::trace::{covered, self_times, Span, Tracer};
use perfbench::valid_metric_name;
use spire_core::{Sample, SampleSet};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 1..=100: p90 is the 90th value with exactly 10 above it; p91 would
    // leave only 9.
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&v).expect("100 samples have a tail");
    assert_eq!((t.pct, t.value, t.n, t.beyond), (90, 90.0, 100, 10));

    // 1000 samples reach p99: rank 990, ten above.
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&v).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99, 990.0, 10));

    // 108 samples: p90 is rank ceil(97.2) = 98 with 10 above; p91 is rank
    // 99 with 9 above.
    let v: Vec<f64> = (1..=108).rev().map(f64::from).collect();
    let t = tail(&v).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (90, 98.0, 10));

    // Fewer than 20 samples leave fewer than ten above the median.
    assert!(tail(&[1.0; 19]).is_none());
    assert_eq!(tail(&[1.0; 20]).map(|t| t.pct), Some(50));
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
    Span {
        id,
        parent,
        name: format!("s{id}"),
        run: 0,
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Parent 0–10; children 1–3 and 2–5 overlap (cover 1–5), child 8–12
    // sticks out past the parent (counts 8–10). Self = 10 − 4 − 2 = 4.
    let spans = vec![
        span(1, None, 0.0, 10.0),
        span(2, Some(1), 1.0, 3.0),
        span(3, Some(1), 2.0, 5.0),
        span(4, Some(1), 8.0, 12.0),
        span(5, Some(2), 1.5, 2.5),
    ];
    let selfs = self_times(&spans);
    assert!((selfs[&1] - 4.0).abs() < 1e-12);
    assert!((selfs[&2] - 1.0).abs() < 1e-12);
    assert!((selfs[&3] - 3.0).abs() < 1e-12);
    assert!((selfs[&5] - 1.0).abs() < 1e-12);
    assert_eq!(covered(&[], 0.0, 1.0), 0.0);
}

#[test]
fn tracer_records_nested_spans_only_when_enabled() {
    let on = Tracer::new(true);
    let out = on.span("outer", None, 7, |outer| {
        on.span("inner", outer, 7, |_| {
            std::thread::sleep(Duration::from_millis(2))
        });
        42
    });
    assert_eq!(out, 42);
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    let (outer, inner) = (&spans[0], &spans[1]);
    assert_eq!(
        (outer.name.as_str(), inner.name.as_str()),
        ("outer", "inner")
    );
    assert_eq!(inner.parent, Some(outer.id));
    assert!(inner.start >= outer.start && inner.end <= outer.end);
    assert!(inner.duration() >= 0.002);
    assert_eq!(outer.run, 7);

    let off = Tracer::new(false);
    assert_eq!(off.span("x", None, 0, |id| id), None);
    let now = Instant::now();
    assert_eq!(off.record("x", None, 0, now, now), None);
    assert!(off.spans().is_empty());
}

fn pool() -> Vec<SampleSet> {
    (0..3)
        .map(|w| {
            let mut set = SampleSet::new();
            for i in 0..120 {
                let x = 1.0 + (w * 120 + i) as f64;
                set.push(Sample::new(format!("m{}", i % 40), 1.0, x, x / 2.0).unwrap());
            }
            set
        })
        .collect()
}

#[test]
fn open_loop_schedule_is_poisson_with_exact_shares() {
    let plan = schedule(9, 40.0, 400, &pool());
    assert_eq!(plan.len(), 400);
    // Due times are increasing and the mean gap is close to 1/rate.
    assert!(plan.windows(2).all(|w| w[0].due < w[1].due));
    let mean_gap = plan.last().unwrap().due / plan.len() as f64;
    assert!((mean_gap - 1.0 / 40.0).abs() < 0.005, "mean gap {mean_gap}");
    let count = |c: Class| plan.iter().filter(|p| p.class == c).count();
    let updates = count(Class::Update);
    assert_eq!(updates, (UPDATE_SHARE * 400.0).round() as usize);
    let reads = 400 - updates;
    assert_eq!(
        count(Class::Large),
        (LARGE_SHARE_OF_READS * reads as f64).round() as usize
    );
    // A repeat is byte-identical to the read it repeats.
    for p in plan.iter().filter(|p| p.repeat_of.is_some()) {
        let original = &plan[p.repeat_of.unwrap()];
        assert_eq!((p.kind, p.class), (original.kind, original.class));
        assert_eq!(
            serde_json::to_string(&p.samples).unwrap(),
            serde_json::to_string(&original.samples).unwrap()
        );
    }
    // Updates carry unique idempotency keys; reads carry none.
    let mut keys: Vec<_> = plan.iter().filter_map(|p| p.key.clone()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), updates);
}

#[test]
fn open_loop_times_requests_from_their_due_time() {
    // One connection, three requests due at once, each taking 50 ms: the
    // second leaves ~50 ms late and answers ~100 ms after it was due. The
    // tolerance leaves room for a busy test machine.
    let work = |_: &mut (), _: usize, _: Instant| std::thread::sleep(Duration::from_millis(50));
    let (_, done) = open_loop(&[0.0, 0.0, 0.0], vec![()], work);
    let near = |got: f64, want: f64| (got - want).abs() < 0.03;
    let late: Vec<f64> = done.iter().map(|d| d.late()).collect();
    assert!(
        near(late[0], 0.0) && near(late[1], 0.05) && near(late[2], 0.1),
        "{late:?}"
    );
    assert!(near(done[1].latency(), 0.1), "{}", done[1].latency());
    assert!(near(done[2].latency(), 0.15), "{}", done[2].latency());
    // The first send found the other two due and waiting.
    assert_eq!(
        done.iter().map(|d| d.backlog).collect::<Vec<_>>(),
        vec![2, 1, 0]
    );

    // Two connections halve the queue: the third request waits one
    // service time, and a request due later is sent on time.
    let (_, done) = open_loop(&[0.0, 0.0, 0.0, 0.3], vec![(), ()], work);
    assert!(near(done[0].late(), 0.0) && near(done[1].late(), 0.0));
    assert!(near(done[2].late(), 0.05), "{}", done[2].late());
    assert!(near(done[3].late(), 0.0) && done[3].sent >= 0.3);
}

#[test]
fn backlog_grows_only_when_lateness_keeps_rising() {
    let steady: Vec<f64> = (0..40)
        .map(|i| if i % 7 == 0 { 0.08 } else { 0.0 })
        .collect();
    assert!(!backlog_growing(&steady, 0.05));
    let rising: Vec<f64> = (0..40).map(|i| i as f64 * 0.01).collect();
    assert!(backlog_growing(&rising, 0.05));
    assert!(!backlog_growing(&[], 0.05));
}

#[test]
fn metric_names_follow_the_grammar() {
    for ok in [
        "setup_s",
        "sim.mcycles_per_busy_s.memory",
        "serve.wait_ms.large",
        "a-b",
        "9x",
    ] {
        assert!(valid_metric_name(ok), "{ok}");
    }
    for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
}

const TINY: SynthScale = SynthScale {
    metrics: 6,
    workloads: 4,
    rows: 40,
    targets: 2,
    target_rows: 2,
    batches: 3,
    batch_rows: 4,
};

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    let json = |seed| {
        let s = synthetic(seed, &TINY);
        let mut out = s.corpus.to_json().unwrap() + &s.targets.to_json().unwrap();
        for b in &s.batches {
            out += &b.to_json().unwrap();
        }
        out
    };
    assert_eq!(json(5), json(5));
    assert_ne!(json(5), json(6));

    let plan = |seed| {
        schedule(seed, 80.0, 200, &pool())
            .iter()
            .map(|p| {
                format!(
                    "{} {} {} {:?} {}",
                    p.due,
                    p.kind,
                    p.class.name(),
                    p.key,
                    serde_json::to_string(&p.samples).unwrap()
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(plan(3), plan(3));
    assert_ne!(plan(3), plan(4));
}

#[test]
fn synthetic_corpus_has_the_planned_shape() {
    let s = synthetic(1, &TINY);
    assert_eq!(s.corpus.len(), TINY.workloads);
    assert_eq!(
        s.corpus.total_samples(),
        TINY.metrics * TINY.workloads * TINY.rows
    );
    assert_eq!(
        s.targets.total_samples(),
        TINY.metrics * TINY.targets * TINY.target_rows
    );
    assert_eq!(s.batches.len(), TINY.batches);
}
