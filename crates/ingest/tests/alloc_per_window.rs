//! The allocation contract of the window producers: once warmed up, a
//! pipeline or a decoder whose caller drops each report allocates nothing
//! per window, because each window is built in the storage of one that no
//! report holds any more.
//!
//! A counting global allocator over `System` counts the allocations (and
//! reallocations) made on the calling thread, so the tests of this binary
//! can run side by side. Each producer plays a lesson twice, and every
//! window of the second pass must allocate nothing (see [`WINDOWS`]). The
//! same rule keeps a held report's cells and never leaves a half-written
//! base behind, which the last two tests check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tw_ingest::codec::decode_stream_window_into;
use tw_ingest::{
    collect_events, encode_window, encode_window_delta, CodecError, DecodeScratch, EventSource,
    Pipeline, PipelineConfig, Scenario, Skewed, WindowReport,
};
use tw_matrix::stream::PacketEvent;

/// Counts every allocation and reallocation the current thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold unchanged; counting touches a const-
// initialized thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Windows in one pass of a lesson. Every producer plays a lesson twice:
/// the first pass is the warm-up, which grows each buffer to the largest
/// window of the lesson, and every window of the second pass must then
/// allocate nothing. Counting the first pass instead would count a buffer
/// growing to a window larger than any before it, which is allocation a
/// window of that size needs.
const WINDOWS: usize = 32;
/// The lesson's address space: the live classroom's 4,096 nodes.
const NODES: u32 = 4_096;
/// 100 ms windows, ~10k events each in every scenario.
const WINDOW_US: u64 = 100_000;

/// A pre-generated event stream, replayed without allocating: the
/// scenario generators are not under test.
struct Replay {
    events: Vec<PacketEvent>,
    cursor: usize,
}

impl EventSource for Replay {
    fn node_count(&self) -> u32 {
        NODES
    }

    fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
        let end = (self.cursor + max).min(self.events.len());
        out.extend_from_slice(&self.events[self.cursor..end]);
        let pulled = end - self.cursor;
        self.cursor = end;
        pulled
    }
}

/// A lesson of up to [`WINDOWS`] windows of `scenario`, clock-skewed by up
/// to `skew_us` (0 for a sorted stream), played twice: the second pass is
/// the first shifted past its last event by whole windows, so its windows
/// hold the first pass's events exactly. A pass is cut to whole pulls of
/// the pipeline, so the second one pulls the same batches as the first:
/// the reorder router's list of events for later windows grows, like a
/// `Vec`, to the most a pull leaves there, which depends on where the
/// pulls fall. Returns the events and the windows of one pass.
fn lesson_twice(scenario: Scenario, skew_us: u64) -> (Vec<PacketEvent>, usize) {
    let end_us = WINDOWS as u64 * WINDOW_US;
    let mut sorted: Vec<PacketEvent> =
        collect_events(scenario.source(NODES, 1).as_mut(), (WINDOWS + 1) * 12_000)
            .into_iter()
            .take_while(|e| e.timestamp_us < end_us)
            .collect();
    let batch = PipelineConfig::default().batch_size;
    sorted.truncate(sorted.len() / batch * batch);
    let count = sorted.len();
    let replay = Replay {
        events: sorted,
        cursor: 0,
    };
    let mut skewed = Skewed::new(Box::new(replay), skew_us, skew_us / 4, 1);
    let mut events = collect_events(&mut skewed, count);
    let last_us = events.iter().map(|e| e.timestamp_us).max().unwrap_or(0);
    let pass_us = (last_us / WINDOW_US + 1) * WINDOW_US;
    let second: Vec<PacketEvent> = events
        .iter()
        .map(|e| PacketEvent {
            timestamp_us: e.timestamp_us + pass_us,
            ..*e
        })
        .collect();
    events.extend(second);
    (events, (pass_us / WINDOW_US) as usize)
}

/// The allocations of each window of the second pass but the last, the
/// end-of-stream flush.
fn pipeline_allocations(scenario: Scenario, skew_us: u64) -> Vec<u64> {
    let config = PipelineConfig {
        window_us: WINDOW_US,
        reorder_horizon_us: skew_us + skew_us / 4,
        ..PipelineConfig::default()
    };
    let (events, pass) = lesson_twice(scenario, skew_us);
    let mut pipeline = Pipeline::new(Box::new(Replay { events, cursor: 0 }), config);
    let mut next = || drop(pipeline.next_window().expect("two passes of windows"));
    (0..pass).for_each(|_| next());
    (1..pass).map(|_| counted(&mut next).1).collect()
}

#[test]
fn pipeline_windows_allocate_nothing_once_warm() {
    for scenario in [Scenario::Mixed, Scenario::Ddos, Scenario::Scan] {
        // Strict mode, and a reorder horizon over a stream skewed by up
        // to 20 ms.
        for skew_us in [0, 20_000] {
            let allocations = pipeline_allocations(scenario, skew_us);
            assert!(
                allocations.iter().all(|&n| n == 0),
                "{} with skew {skew_us} us: allocations per window of the second pass: {allocations:?}",
                scenario.name()
            );
        }
    }
}

/// The first windows of a ddos lesson on 1,024 nodes.
fn ddos_windows(count: usize) -> Vec<WindowReport> {
    let config = PipelineConfig {
        window_us: WINDOW_US,
        ..PipelineConfig::default()
    };
    Pipeline::new(Scenario::Ddos.source(1_024, 1), config).run(count)
}

/// The allocations of each decode of the second pass over `payloads`,
/// dropping each report.
fn decode_allocations(payloads: &[Vec<u8>]) -> Vec<u64> {
    let mut scratch = DecodeScratch::new();
    let mut decode = |payload: &Vec<u8>| {
        drop(decode_stream_window_into(payload, 1_024, &mut scratch).unwrap());
    };
    payloads.iter().for_each(&mut decode);
    payloads
        .iter()
        .map(|payload| counted(|| decode(payload)).1)
        .collect()
}

#[test]
fn full_window_decodes_allocate_nothing_once_warm() {
    let payloads: Vec<Vec<u8>> = ddos_windows(WINDOWS).iter().map(encode_window).collect();
    let allocations = decode_allocations(&payloads);
    assert!(
        allocations.iter().all(|&n| n == 0),
        "allocations per full window of the second pass: {allocations:?}"
    );
}

#[test]
fn delta_chain_decodes_allocate_nothing_once_warm() {
    // A key frame every eight windows and v5 deltas between them; the
    // second pass starts at a key frame.
    let reports = ddos_windows(WINDOWS);
    let payloads: Vec<Vec<u8>> = reports
        .iter()
        .enumerate()
        .map(|(i, report)| match i % 8 {
            0 => encode_window(report),
            _ => encode_window_delta(&reports[i - 1], report),
        })
        .collect();
    let allocations = decode_allocations(&payloads);
    assert!(
        allocations.iter().all(|&n| n == 0),
        "allocations per window of a delta chain's second pass: {allocations:?}"
    );
}

#[test]
fn a_held_report_keeps_its_cells() {
    let config = PipelineConfig {
        window_us: WINDOW_US,
        ..PipelineConfig::default()
    };
    let mut pipeline = Pipeline::new(Scenario::Ddos.source(1_024, 1), config);
    let held = pipeline.next_window().unwrap();
    let cells = (*held.matrix).clone();
    for _ in 0..2 {
        drop(pipeline.next_window().unwrap());
    }
    assert_eq!(*held.matrix, cells, "the pipeline built nothing in it");

    let reports = ddos_windows(3);
    let mut scratch = DecodeScratch::new();
    let decode = |scratch: &mut DecodeScratch, report: &WindowReport| {
        decode_stream_window_into(&encode_window(report), 1_024, scratch)
            .unwrap()
            .0
    };
    let held = decode(&mut scratch, &reports[0]);
    for report in &reports[1..] {
        drop(decode(&mut scratch, report));
    }
    assert_eq!(held, reports[0], "the decoder built nothing in it");
}

#[test]
fn a_failed_decode_leaves_no_half_written_base() {
    let reports = ddos_windows(4);
    let key = encode_window(&reports[0]);
    let delta = encode_window_delta(&reports[0], &reports[1]);
    let mut scratch = DecodeScratch::new();
    // The key frame's report is dropped, so the next full window is built
    // in the base's own storage. Cut short, it fails half-way through the
    // cells, and the base it overwrote is forgotten.
    drop(decode_stream_window_into(&key, 1_024, &mut scratch).unwrap());
    let cut = &encode_window(&reports[2])[..key.len() / 2];
    assert!(decode_stream_window_into(cut, 1_024, &mut scratch).is_err());
    assert_eq!(
        decode_stream_window_into(&delta, 1_024, &mut scratch).map(|(report, _)| report),
        Err(CodecError::DeltaBaseMismatch {
            expected: 0,
            actual: None,
        })
    );

    // A delta that fails is built beside its base, which stays whole: the
    // chain goes on from it.
    drop(decode_stream_window_into(&key, 1_024, &mut scratch).unwrap());
    let cut = &delta[..delta.len() - 1];
    assert!(decode_stream_window_into(cut, 1_024, &mut scratch).is_err());
    let (report, is_delta) = decode_stream_window_into(&delta, 1_024, &mut scratch).unwrap();
    assert!(is_delta);
    assert_eq!(report, reports[1]);
}
