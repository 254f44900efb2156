//! A composite travel-booking Web Service whose flight-search component
//! is upgraded online by a third party.
//!
//! This is the scenario of the paper's Figs. 1–2: `TravelBooking`
//! composes `FlightSearch` and `HotelSearch`, both discovered through a
//! UDDI-like registry. The `FlightSearch` provider deploys release 1.1
//! next to 1.0, announces it via the registry release link, and the
//! composite service runs a managed upgrade instead of being forcibly
//! switched.
//!
//! Run with: `cargo run --release --example travel_booking`

use composite_ws_upgrade::core::manage::SwitchCriterion;
use composite_ws_upgrade::core::upgrade::{ManagedUpgrade, UpgradeConfig, UpgradePhase};
use composite_ws_upgrade::simcore::rng::MasterSeed;
use composite_ws_upgrade::wstack::endpoint::SyntheticService;
use composite_ws_upgrade::wstack::outcome::OutcomeProfile;
use composite_ws_upgrade::wstack::registry::{Registry, ServiceRecord};
use composite_ws_upgrade::wstack::wsdl::{Operation, ServiceDescription, XsdType};

fn flight_wsdl(release: &str) -> ServiceDescription {
    let mut wsdl = ServiceDescription::new("FlightSearch", release);
    wsdl.add_operation(
        Operation::new("searchFlights")
            .with_input("from", XsdType::Str)
            .with_input("to", XsdType::Str)
            .with_input("date", XsdType::Str)
            .with_output("flights", XsdType::Str),
    );
    wsdl
}

fn main() {
    // --- Service publication (the providers' side) -------------------
    let mut registry = Registry::new();
    let flights_v10 = registry.publish(ServiceRecord::new(
        "FlightSearch",
        "http://flights.example/ws/1.0",
        "travel",
        flight_wsdl("1.0"),
    ));
    registry.publish(ServiceRecord::new(
        "HotelSearch",
        "http://hotels.example/ws/1.0",
        "travel",
        ServiceDescription::new("HotelSearch", "1.0"),
    ));

    // --- Discovery (the composite service's side) --------------------
    let hits = registry.find_by_category("travel");
    println!("discovered {} travel services:", hits.len());
    for (key, record) in &hits {
        println!("  {key}  {:<12}  {}", record.name, record.uri);
    }

    // --- The provider upgrades FlightSearch online -------------------
    let flights_v11 = registry.publish(ServiceRecord::new(
        "FlightSearch",
        "http://flights.example/ws/1.1",
        "travel",
        flight_wsdl("1.1"),
    ));
    registry.link_new_release(flights_v10, flights_v11).unwrap();

    // The composite service learns of the upgrade through the link.
    let linked = registry.newer_release(flights_v10).unwrap();
    println!("\nregistry release link: {flights_v10} -> {linked:?}");

    // --- Managed upgrade instead of a blind switch -------------------
    // Simulated behaviours: 1.0 is a known quantity, 1.1 is actually
    // better but arrives with no operational evidence.
    let v10 = SyntheticService::builder("FlightSearch", "1.0")
        .outcomes(OutcomeProfile::new(0.996, 0.002, 0.002))
        .exec_time_mean(0.4)
        .build();
    let v11 = SyntheticService::builder("FlightSearch", "1.1")
        .outcomes(OutcomeProfile::new(0.999, 0.0005, 0.0005))
        .exec_time_mean(0.3)
        .build();

    let config = UpgradeConfig::default()
        .with_criterion(SwitchCriterion::better_than_old(0.9))
        .with_operation("searchFlights")
        .with_assess_interval(250);
    let mut upgrade = ManagedUpgrade::new(v10, v11, config, MasterSeed::new(777));

    println!("\nrunning booking traffic through the managed upgrade ...");
    upgrade.run_demands(5_000);

    match upgrade.phase() {
        UpgradePhase::Switched { at_demand } => {
            println!("switched to FlightSearch 1.1 after {at_demand} bookings");
        }
        UpgradePhase::Aborted { at_demand } => {
            println!("upgrade aborted after {at_demand} demands");
        }
        UpgradePhase::Transitional => {
            println!("still transitional after 5,000 bookings");
        }
    }
    let report = upgrade.confidence_report();
    println!(
        "confidence: old P99 pfd {:.3e}, new P99 pfd {:.3e}",
        report.old_release_p99, report.new_release_p99
    );

    // Publish the confidence in the new release back into the registry
    // for other consumers (Section 6.2's UDDI option).
    let published = upgrade.publishable_confidence(5e-3).unwrap();
    registry.publish_confidence(flights_v11, published).unwrap();
    let record = registry.get(flights_v11).unwrap();
    println!(
        "registry now advertises: P(pfd <= {:.0e}) = {:.3} for FlightSearch 1.1",
        record.confidence.unwrap().pfd_target,
        record.confidence.unwrap().confidence
    );

    // Finally the provider withdraws the old release.
    registry.withdraw(flights_v10).unwrap();
    println!(
        "old release withdrawn; registry holds {} records",
        registry.len()
    );
}
