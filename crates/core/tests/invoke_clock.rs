//! The middleware tells an endpoint the virtual time just before it
//! invokes it, and no other endpoint. A clock-aware endpoint then acts
//! exactly as it would if every deployed endpoint were told the time
//! before every demand, because an endpoint reads its clock only when
//! it is invoked.

use std::cell::RefCell;
use std::rc::Rc;

use wsu_core::middleware::{MiddlewareConfig, UpgradeMiddleware};
use wsu_core::modes::OperatingMode;
use wsu_faults::{FaultAction, FaultClause, FaultInjector, FaultPlan, FaultTrigger};
use wsu_obs::{SharedRecorder, TraceEvent};
use wsu_simcore::dist::DelayModel;
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_wstack::endpoint::{Invocation, ServiceEndpoint, SyntheticService};
use wsu_wstack::message::Envelope;
use wsu_wstack::wsdl::ServiceDescription;

type Injector = FaultInjector<SyntheticService>;

/// An injector the test can still reach after the middleware owns it.
struct Shared {
    description: ServiceDescription,
    injector: Rc<RefCell<Injector>>,
}

impl ServiceEndpoint for Shared {
    fn describe(&self) -> &ServiceDescription {
        &self.description
    }

    fn invoke(&mut self, request: &Envelope, rng: &mut StreamRng) -> Invocation {
        self.injector.borrow_mut().invoke(request, rng)
    }

    fn advance_clock(&mut self, now_secs: f64) {
        self.injector.borrow_mut().advance_clock(now_secs);
    }
}

/// The canary's fault window, in virtual seconds. It opens while the
/// canary takes no traffic (demands 100 to 299, about 60 s to 180 s).
const WINDOW: (f64, f64) = (120.0, 260.0);

/// Runs a two-release weighted fleet for 600 demands. The canary
/// crashes inside [`WINDOW`] and gets zero weight for demands 100 to
/// 299. With `fan_out`, every endpoint is told the time before every
/// demand, as the middleware once did. Returns the injection count,
/// the trace times of the injections and the instant the canary's
/// weight came back.
fn run(fan_out: bool) -> (u64, Vec<f64>, f64) {
    let recorder = SharedRecorder::new();
    let seed = MasterSeed::new(0xC10C);
    let service = |release: &str| {
        SyntheticService::builder("Quote", release)
            .exec_time(DelayModel::constant(0.5))
            .build()
    };
    let window = FaultPlan::new().with_clause(FaultClause::new(
        "window-crash",
        FaultTrigger::TimeWindow {
            from_secs: WINDOW.0,
            to_secs: WINDOW.1,
        },
        FaultAction::Crash,
    ));
    let injectors = [
        FaultInjector::new(service("1.0"), FaultPlan::new(), seed),
        FaultInjector::new(service("1.1"), window, seed),
    ]
    .map(|injector| Rc::new(RefCell::new(injector.with_recorder(recorder.clone()))));
    let tally = injectors[1].borrow().tally();
    let mut mw = UpgradeMiddleware::new(MiddlewareConfig {
        mode: OperatingMode::WeightedFleet,
        ..MiddlewareConfig::paper(2.0)
    });
    let ids = injectors.clone().map(|injector| {
        let description = injector.borrow().describe().clone();
        mw.deploy(Shared {
            description,
            injector,
        })
    });
    let request = Envelope::request("invoke");
    let mut rng = seed.stream("demands");
    let mut clock = 0.0;
    let mut back = f64::NAN;
    for demand in 0..600 {
        match demand {
            100 => mw.releases_mut().set_weight(ids[1], 0.0).unwrap(),
            300 => {
                mw.releases_mut().set_weight(ids[1], 1.0).unwrap();
                back = clock;
            }
            _ => {}
        }
        mw.set_virtual_time(clock);
        if fan_out {
            for injector in &injectors {
                injector.borrow_mut().advance_clock(clock);
            }
        }
        let record = mw.process(&request, &mut rng).unwrap();
        clock += record.system.response_time.as_secs();
        mw.recycle(record);
    }
    let times = recorder
        .snapshot()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::FaultInjected { t, .. } => Some(*t),
            _ => None,
        })
        .collect();
    (tally.total(), times, back)
}

#[test]
fn a_window_that_opens_while_a_release_is_idle_fires_as_under_fan_out() {
    let (injected, times, back) = run(false);
    assert_eq!((injected, times.clone(), back), run(true));
    // The window opened while the canary was idle and was still open
    // when its traffic came back, so the canary's first demand after
    // the stretch crashed, at the instant its weight came back or just
    // after. A canary still holding its last pre-stretch instant
    // (about 60 s) would have answered it.
    assert!(
        back > WINDOW.0 && back < WINDOW.1,
        "weight back at {back} s"
    );
    assert!(injected > 0);
    assert_eq!(times.len() as u64, injected);
    assert!(times.iter().all(|t| (WINDOW.0..WINDOW.1).contains(t)));
    assert!(times[0] >= back && times[0] < back + 5.0, "{times:?}");
}
