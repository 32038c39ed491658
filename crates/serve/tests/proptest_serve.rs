//! Property tests for the serving tier's over-the-wire equivalence
//! guarantee: for ANY scenario and client count, serving on an
//! ephemeral loopback port delivers every `connect` client — including one
//! joining mid-broadcast — a window suffix that is cell-for-cell identical
//! to a serial `Pipeline::run` of the same seeded scenario. The in-process
//! mirror of this property lives in `tw-game`'s `proptest_broadcast.rs`;
//! here the windows additionally survive encode → frame → TCP → decode.

use proptest::prelude::*;
use tw_ingest::{collect_stream, Pipeline, PipelineConfig, Scenario, WindowReport};
use tw_serve::{loopback_listener, serve, ClientStream, ServeConfig};

fn pipeline(scenario: Scenario, nodes: u32, seed: u64) -> Pipeline {
    let config = PipelineConfig {
        window_us: 50_000,
        batch_size: 2_048,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    Pipeline::new(scenario.source(nodes, seed), config)
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (0usize..Scenario::all().len()).prop_map(|i| Scenario::all()[i])
}

/// The windows a client received must equal the serial reference from
/// `start` on, cell-for-cell (`elapsed` is wall-clock and excluded;
/// everything else survives the codec byte-exactly).
fn assert_suffix(
    reference: &[WindowReport],
    received: &[WindowReport],
    start: usize,
) -> Result<(), TestCaseError> {
    let expected = &reference[start.min(reference.len())..];
    prop_assert_eq!(
        received.len(),
        expected.len(),
        "client from window {} got the wrong window count",
        start
    );
    for (reference, received) in expected.iter().zip(received) {
        prop_assert_eq!(&reference.matrix, &received.matrix);
        prop_assert_eq!(reference.stats.window_index, received.stats.window_index);
        prop_assert_eq!(reference.stats.events, received.stats.events);
        prop_assert_eq!(reference.stats.packets, received.stats.packets);
        prop_assert_eq!(reference.stats.nnz, received.stats.nnz);
        prop_assert_eq!(reference.stats.dropped_late, received.stats.dropped_late);
    }
    Ok(())
}

proptest! {
    // TCP setup/teardown per case is comparatively expensive; fewer cases
    // than the in-process mirror, same property space.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_remote_client_observes_the_serial_stream(
        scenario in arb_scenario(),
        nodes in 40u32..120,
        seed in any::<u64>(),
        windows in 2usize..5,
        clients in 2usize..6,
    ) {
        // Serial reference: one pull-based run, no sockets involved.
        let reference = pipeline(scenario, nodes, seed).run(windows);
        prop_assert_eq!(reference.len(), windows, "scenario sources are unbounded");

        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        // The roster gate holds the first window until every client has
        // joined, and capacities are sized so nothing can drop:
        // equivalence, not lag, is under test.
        let config = ServeConfig {
            scenario: format!("{scenario:?}"),
            seed,
            channel_capacity: windows + 1,
            ring_capacity: windows + 1,
            wait_for: clients,
            max_windows: windows,
            ..ServeConfig::default()
        };

        let (summary, received) = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = ClientStream::connect(addr)?;
                        let windows = collect_stream(&mut client, usize::MAX)
                            .map_err(|e| match e {
                                tw_ingest::StreamError::Frame(f) => f,
                                other => panic!("non-frame stream error: {other}"),
                            })?;
                        Ok::<_, tw_ingest::FrameError>((windows, *client.close_summary().unwrap()))
                    })
                })
                .collect();
            let mut stream = pipeline(scenario, nodes, seed);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            let received: Vec<_> = readers
                .into_iter()
                .map(|r| r.join().unwrap().expect("client stream failed"))
                .collect();
            (summary, received)
        });

        prop_assert_eq!(summary.windows(), windows as u64);
        prop_assert_eq!(summary.connections(), clients);
        prop_assert_eq!(summary.broadcast.conservation_error(), None);
        for (client_windows, close) in &received {
            assert_suffix(&reference, client_windows, 0)?;
            prop_assert_eq!(close.windows, windows as u64);
            prop_assert_eq!(close.delivered, windows as u64);
            prop_assert_eq!(close.dropped, 0);
            prop_assert_eq!(close.missed, 0);
        }
    }

    /// A client that joins mid-broadcast still sees a contiguous,
    /// cell-identical suffix, with the head it could not receive accounted
    /// (missed + delivered covers every window).
    #[test]
    fn late_remote_joiners_observe_a_serial_suffix(
        scenario in arb_scenario(),
        nodes in 40u32..100,
        seed in any::<u64>(),
        windows in 3usize..6,
        join_delay_ms in 5u64..40,
    ) {
        let reference = pipeline(scenario, nodes, seed).run(windows);
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            scenario: format!("{scenario:?}"),
            seed,
            channel_capacity: windows + 1,
            ring_capacity: windows + 1,
            wait_for: 1,
            max_windows: windows,
            ..ServeConfig::default()
        };

        let outcome = std::thread::scope(|scope| {
            let on_time = scope.spawn(move || {
                let mut client = ClientStream::connect(addr).unwrap();
                collect_stream(&mut client, usize::MAX).unwrap()
            });
            let late = scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(join_delay_ms));
                // The server may already be gone; that is a legal outcome
                // for a very late join, not a failure.
                let mut client = match ClientStream::connect(addr) {
                    Ok(client) => client,
                    Err(_) => return None,
                };
                let windows = collect_stream(&mut client, usize::MAX).unwrap();
                Some((windows, *client.close_summary().unwrap()))
            });
            // Pace the stream (50 ms windows at 10x = 5 ms cadence) so the
            // delayed join lands mid-broadcast at least sometimes.
            let mut stream = tw_ingest::Paced::new(pipeline(scenario, nodes, seed), 10);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            (summary, on_time.join().unwrap(), late.join().unwrap())
        });
        let (summary, on_time_windows, late_outcome) = outcome;

        prop_assert_eq!(summary.windows(), windows as u64);
        assert_suffix(&reference, &on_time_windows, 0)?;
        if let Some((late_windows, close)) = late_outcome {
            let start = windows - late_windows.len();
            assert_suffix(&reference, &late_windows, start)?;
            prop_assert_eq!(close.windows, windows as u64);
            prop_assert_eq!(
                close.delivered + close.missed,
                windows as u64,
                "an undropped late joiner accounts every window"
            );
        }
    }
}
