//! Behavioural tests of the deterministic batch runner: submission-order
//! results under adversarial completion order, panic propagation, and the
//! `jobs = 0 / 1` edge cases.

use manytest_bench::runner::Batch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn results_follow_submission_order_not_completion_order() {
    // Earlier submissions sleep longer, so with several workers the jobs
    // *complete* in roughly reverse submission order — the results must
    // still come back in submission order.
    let n = 12u64;
    let mut batch = Batch::new();
    for i in 0..n {
        batch.push(format!("sleep/{i}"), move || {
            std::thread::sleep(Duration::from_millis((n - i) * 3));
            i
        });
    }
    let results = batch.run(4);
    assert_eq!(results, (0..n).collect::<Vec<_>>());
}

#[test]
fn a_panicking_job_does_not_stop_the_others() {
    static RAN: AtomicUsize = AtomicUsize::new(0);
    let mut batch = Batch::new();
    for i in 0..8usize {
        batch.push(format!("job/{i}"), move || {
            RAN.fetch_add(1, Ordering::SeqCst);
            if i == 2 {
                panic!("boom in job {i}");
            }
            i
        });
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch.run(3)));
    let payload = outcome.expect_err("the panic must propagate to the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("boom in job 2"), "got panic payload: {msg:?}");
    // Every job still executed despite the panic in the middle.
    assert_eq!(RAN.load(Ordering::SeqCst), 8);
}

#[test]
fn jobs_one_runs_serially_in_order() {
    // With one worker the runner takes the inline path; execution order
    // equals submission order, which we observe through a shared log.
    let log = std::sync::Mutex::new(Vec::new());
    let mut batch = Batch::new();
    for i in 0..6usize {
        let log = &log;
        batch.push(format!("serial/{i}"), move || {
            log.lock().expect("log lock").push(i);
            i * 2
        });
    }
    let results = batch.run(1);
    assert_eq!(results, vec![0, 2, 4, 6, 8, 10]);
    assert_eq!(*log.lock().expect("log lock"), vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn jobs_zero_uses_a_default_and_keeps_order() {
    let mut batch = Batch::new();
    for i in 0..10u32 {
        batch.push(format!("auto/{i}"), move || i + 100);
    }
    let results = batch.run(0);
    assert_eq!(results, (100..110).collect::<Vec<_>>());
}

#[test]
fn more_workers_than_jobs_is_fine() {
    let mut batch = Batch::new();
    batch.push("only", || 7u8);
    batch.push("other", || 9u8);
    assert_eq!(batch.run(64), vec![7, 9]);
}

#[test]
fn empty_batch_returns_empty() {
    let batch: Batch<'_, u8> = Batch::new();
    assert_eq!(batch.run(4), Vec::<u8>::new());
}

#[test]
fn borrowed_data_can_be_captured() {
    // The 'scope lifetime lets jobs borrow from the caller's stack.
    let inputs = vec![3u64, 1, 4, 1, 5];
    let mut batch = Batch::new();
    for (i, v) in inputs.iter().enumerate() {
        batch.push(format!("borrow/{i}"), move || v * 10);
    }
    assert_eq!(batch.run(2), vec![30, 10, 40, 10, 50]);
}
