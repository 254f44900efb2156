//! Property-style tests of the middleware's per-demand invariants under
//! arbitrary release behaviours, modes and timeouts.
//!
//! Originally written with `proptest`; rewritten as deterministic
//! seeded-loop checks (no external dev-dependencies — see the note in
//! `crates/simcore/tests/properties.rs`).

use wsu_core::adjudicate::SystemVerdict;
use wsu_core::middleware::{MiddlewareConfig, UpgradeMiddleware};
use wsu_core::modes::{OperatingMode, SequentialOrder};
use wsu_obs::SharedRecorder;
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_simcore::time::SimDuration;
use wsu_wstack::endpoint::{PlannedResponse, ScriptedEndpoint};
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::ResponseClass;

fn rng_for(test: &str) -> StreamRng {
    MasterSeed::new(0x4D_49_44_44_4C_45_50_52).stream(test)
}

fn f64_in(rng: &mut StreamRng, lo: f64, hi: f64) -> f64 {
    let unit = rng.next_u64() as f64 / u64::MAX as f64;
    lo + unit * (hi - lo)
}

fn arb_class(rng: &mut StreamRng) -> ResponseClass {
    match rng.next_below(3) {
        0 => ResponseClass::Correct,
        1 => ResponseClass::EvidentFailure,
        _ => ResponseClass::NonEvidentFailure,
    }
}

fn arb_mode(rng: &mut StreamRng) -> OperatingMode {
    match rng.next_below(5) {
        0 => OperatingMode::ParallelReliability,
        1 => OperatingMode::ParallelResponsiveness,
        2 => OperatingMode::ParallelDynamic {
            quorum: 1 + rng.next_below(3) as usize,
        },
        3 => OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        },
        _ => OperatingMode::Sequential {
            order: SequentialOrder::Random,
        },
    }
}

/// Per-demand invariants hold for any pair behaviour, mode and timeout.
#[test]
fn demand_record_invariants() {
    let mut rng = rng_for("demand_invariants");
    for _ in 0..128 {
        let class_a = arb_class(&mut rng);
        let class_b = arb_class(&mut rng);
        let time_a = f64_in(&mut rng, 0.01, 6.0);
        let time_b = f64_in(&mut rng, 0.01, 6.0);
        let timeout = f64_in(&mut rng, 0.5, 4.0);
        let mode = arb_mode(&mut rng);
        let seed = rng.next_u64();

        let mut config = MiddlewareConfig::paper(timeout);
        config.mode = mode;
        let dt = config.adjudication_delay;
        let mut mw = UpgradeMiddleware::new(config);
        let plan = [
            PlannedResponse {
                class: class_a,
                exec_time: SimDuration::from_secs(time_a),
            },
            PlannedResponse {
                class: class_b,
                exec_time: SimDuration::from_secs(time_b),
            },
        ];
        let mut a = ScriptedEndpoint::new("Svc", "1.0");
        a.push(plan[0]);
        let mut b = ScriptedEndpoint::new("Svc", "1.1");
        b.push(plan[1]);
        mw.deploy(a);
        mw.deploy(b);

        let mut demand_rng = StreamRng::from_seed(seed);
        let record = mw
            .process(&Envelope::request("invoke"), &mut demand_rng)
            .unwrap();

        // The plan-fed path answers the same demand with the same record
        // and leaves the stream at the same draw, in every mode.
        let mut planned_rng = StreamRng::from_seed(seed);
        let mut planned_mw = UpgradeMiddleware::new(config);
        let planned = planned_mw.process_planned(&plan, &mut planned_rng).unwrap();
        assert_eq!(*planned, record, "{mode:?}");
        assert_eq!(planned_rng.next_u64(), demand_rng.next_u64(), "{mode:?}");

        // Responders equals the within-timeout observations.
        let within = record
            .per_release
            .iter()
            .filter(|o| o.within_timeout)
            .count();
        if mode == OperatingMode::ParallelReliability {
            assert_eq!(record.system.responders, within);
        } else {
            assert!(record.system.responders <= within.max(record.per_release.len()));
        }

        // Verdict consistency with the observations.
        match record.system.verdict {
            SystemVerdict::Unavailable => {
                assert_eq!(within, 0, "unavailable despite responses");
            }
            SystemVerdict::Response(class) => {
                if class.is_valid() {
                    assert!(
                        record
                            .per_release
                            .iter()
                            .any(|o| o.within_timeout && o.class == class),
                        "forwarded class {class:?} nobody produced"
                    );
                }
            }
        }

        // Source, when present, points at an invoked release with the
        // forwarded class.
        if let (SystemVerdict::Response(class), Some(source)) =
            (record.system.verdict, record.system.source)
        {
            assert!(record
                .per_release
                .iter()
                .any(|o| o.release == source && o.class == class));
        }

        // Timing bounds: parallel modes answer within timeout + dT; the
        // sequential mode within (#attempts * timeout) + dT.
        let bound = match mode {
            OperatingMode::Sequential { .. } => {
                timeout * record.per_release.len() as f64 + dt.as_secs()
            }
            _ => timeout + dt.as_secs(),
        };
        assert!(
            record.system.response_time.as_secs() <= bound + 1e-9,
            "response time {} exceeds bound {bound}",
            record.system.response_time.as_secs()
        );
        // And it always includes the adjudication delay.
        assert!(record.system.response_time >= dt);
    }
}

/// Over many demands in each parallel mode, with a trace recorder
/// attached, the plan-fed path replays two scripted endpoints draw for
/// draw: equal records, equal trace events, an equal next draw and an
/// equal demand count.
#[test]
fn planned_demands_replay_scripted_endpoints() {
    const DEMANDS: usize = 400;
    let mut rng = rng_for("planned_replay");
    let plan: Vec<[PlannedResponse; 2]> = (0..DEMANDS)
        .map(|_| {
            [0, 1].map(|_| PlannedResponse {
                class: arb_class(&mut rng),
                exec_time: SimDuration::from_secs(f64_in(&mut rng, 0.01, 3.0)),
            })
        })
        .collect();
    for mode in [
        OperatingMode::ParallelReliability,
        OperatingMode::ParallelResponsiveness,
        OperatingMode::ParallelDynamic { quorum: 1 },
        OperatingMode::ParallelDynamic { quorum: 2 },
    ] {
        let mut config = MiddlewareConfig::paper(2.0);
        config.mode = mode;
        let mut scripted = UpgradeMiddleware::new(config);
        for (k, release) in ["1.0", "1.1"].into_iter().enumerate() {
            let mut endpoint = ScriptedEndpoint::new("Svc", release);
            endpoint.extend(plan.iter().map(|pair| pair[k]));
            scripted.deploy(endpoint);
        }
        let mut planned = UpgradeMiddleware::new(config);
        let (scripted_trace, planned_trace) = (SharedRecorder::new(), SharedRecorder::new());
        scripted.set_recorder(scripted_trace.clone());
        planned.set_recorder(planned_trace.clone());
        let mut scripted_rng = rng_for("planned_replay/demands");
        let mut planned_rng = rng_for("planned_replay/demands");
        let request = Envelope::request("invoke");
        let mut clock = 0.0;
        for pair in &plan {
            scripted.set_virtual_time(clock);
            planned.set_virtual_time(clock);
            let want = scripted.process(&request, &mut scripted_rng).unwrap();
            let got = planned.process_planned(pair, &mut planned_rng).unwrap();
            assert_eq!(*got, want, "{mode:?}");
            clock += want.system.response_time.as_secs();
            scripted.recycle(want);
        }
        assert_eq!(
            planned_trace.snapshot(),
            scripted_trace.snapshot(),
            "{mode:?}"
        );
        assert_eq!(planned_trace.len(), 5 * DEMANDS, "{mode:?}");
        assert_eq!(planned_rng.next_u64(), scripted_rng.next_u64(), "{mode:?}");
        assert_eq!(planned.demands(), scripted.demands());
    }
}

/// Sequential mode never invokes a second release after a valid first
/// response.
#[test]
fn sequential_short_circuits() {
    let mut rng = rng_for("sequential_short_circuit");
    for _ in 0..64 {
        let class_b = arb_class(&mut rng);
        let seed = rng.next_u64();
        let mut config = MiddlewareConfig::paper(2.0);
        config.mode = OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        };
        let mut mw = UpgradeMiddleware::new(config);
        let mut a = ScriptedEndpoint::new("Svc", "1.0");
        a.push(PlannedResponse {
            class: ResponseClass::Correct,
            exec_time: SimDuration::from_secs(0.5),
        });
        let mut b = ScriptedEndpoint::new("Svc", "1.1");
        b.push(PlannedResponse {
            class: class_b,
            exec_time: SimDuration::from_secs(0.5),
        });
        mw.deploy(a);
        mw.deploy(b);
        let mut demand_rng = StreamRng::from_seed(seed);
        let record = mw
            .process(&Envelope::request("invoke"), &mut demand_rng)
            .unwrap();
        assert_eq!(record.per_release.len(), 1);
        assert!(record.system.verdict.is_correct());
    }
}

/// Processing is deterministic in (inputs, seed) for every mode.
#[test]
fn processing_is_deterministic() {
    let mut rng = rng_for("processing_deterministic");
    for _ in 0..64 {
        let class_a = arb_class(&mut rng);
        let class_b = arb_class(&mut rng);
        let mode = arb_mode(&mut rng);
        let seed = rng.next_u64();
        let run = || {
            let mut config = MiddlewareConfig::paper(2.0);
            config.mode = mode;
            let mut mw = UpgradeMiddleware::new(config);
            let mut a = ScriptedEndpoint::new("Svc", "1.0");
            a.push(PlannedResponse {
                class: class_a,
                exec_time: SimDuration::from_secs(0.4),
            });
            let mut b = ScriptedEndpoint::new("Svc", "1.1");
            b.push(PlannedResponse {
                class: class_b,
                exec_time: SimDuration::from_secs(0.6),
            });
            mw.deploy(a);
            mw.deploy(b);
            let mut demand_rng = StreamRng::from_seed(seed);
            mw.process(&Envelope::request("invoke"), &mut demand_rng)
                .unwrap()
        };
        assert_eq!(run(), run());
    }
}
