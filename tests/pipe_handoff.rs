//! The batch hand-off behind the pcap replay's read-ahead and the capture
//! pair's matcher (`rlir_sim::pipe`): batches flow both ways and are
//! recycled, the stage comes back on `join`, a worker's panic is re-raised
//! with its payload, and a pipe dropped mid-run returns.

use rlir_sim::pipe::{End, Pipe, BATCH};

/// Fill batches with the numbers from the stage up to 1 000.
fn count_up(next: &mut u64, end: &End<u64>) {
    while let Some(mut batch) = end.take() {
        while batch.len() < BATCH && *next < 1000 {
            batch.push(*next);
            *next += 1;
        }
        if !end.give(batch) || *next == 1000 {
            return;
        }
    }
}

/// Sum what the caller sends.
fn add_up(sum: &mut u64, end: &End<u64>) {
    while let Some(mut batch) = end.take() {
        *sum += batch.drain(..).sum::<u64>();
        let _ = end.give(batch);
    }
}

#[test]
fn batches_flow_both_ways_and_the_stage_comes_back() {
    let pipe = Pipe::spawn(0, count_up).unwrap();
    let mut seen = Vec::new();
    while let Some(mut batch) = pipe.take() {
        assert_eq!(batch.capacity(), BATCH, "batches are recycled");
        seen.append(&mut batch);
        pipe.give(batch);
    }
    assert_eq!(seen, (0..1000).collect::<Vec<u64>>());
    assert_eq!(pipe.join(), 1000);

    let pipe = Pipe::spawn(0, add_up).unwrap();
    for chunk in (0..1000u64).collect::<Vec<_>>().chunks(BATCH) {
        let mut batch = pipe.take().unwrap();
        batch.extend_from_slice(chunk);
        assert!(pipe.give(batch));
    }
    assert_eq!(pipe.join(), 999 * 1000 / 2);
}

#[test]
fn join_re_raises_the_workers_panic_and_drop_returns() {
    fn fail(_: &mut u64, _: &End<u64>) {
        panic!("stage failed");
    }
    let pipe = Pipe::spawn(0, fail).unwrap();
    assert_eq!(pipe.take(), None, "a dead worker hangs up");
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipe.join()));
    let payload = payload.unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"stage failed"));

    // A filler the caller stops draining returns once it hangs up.
    let pipe = Pipe::spawn(0, count_up).unwrap();
    drop(pipe.take());
    drop(pipe);
}
